"""Run the algid command line in process, as the tests read it.

`invoke(main, argv)` returns the exit code, stdout and stderr interleaved as
written (`output`), and the exception that ended the run, if any: a nonzero
SystemExit, or any other exception, which is a traceback a user would have
seen and reads as exit code 1.
"""

import contextlib
import io
import os
from typing import Mapping, NamedTuple, Optional, Sequence
from unittest import mock


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: Optional[BaseException]


def invoke(cli, argv: Sequence[str], env: Optional[Mapping[str, str]] = None) -> Result:
    """Call `cli(argv)` with `env` added to the environment."""
    out = io.StringIO()
    code, exception = 0, None
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli(list(argv))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:  # reported to the test, which decides
            code, exception = 1, exc
    return Result(code, out.getvalue(), exception)
