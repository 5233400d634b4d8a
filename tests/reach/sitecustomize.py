"""Reach recorder: log the first call of every function under ``src/repro``.

Python's ``site`` module imports ``sitecustomize`` at start-up from the
first ``sys.path`` entry that has one, so putting this directory at the
front of ``PYTHONPATH`` loads the recorder into every interpreter a run
starts: the entry point itself, spawned interpreters (which read the same
``PYTHONPATH``) and forked pool workers (which inherit the hook).

The hook is a global trace function that returns ``None``: Python calls
it once per new frame and never asks for line events.  The first time a
process sees a code object under ``src/repro`` it appends
``file<TAB>first line<TAB>name`` to ``out/reach-<pid>.tsv`` with an
unbuffered write, so a process that ends in ``os._exit`` or SIGKILL has
still logged what it ran.  Code objects are keyed by identity: CPython's
code equality ignores the file name, so two textually identical
constructors in different modules would otherwise hide each other.
``report.py`` reads the logs.
"""

import os
import sys
import threading

_HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src", "repro") + os.sep
OUT = os.path.join(_HERE, "out")

#: id(code) -> code.  Holding the code object keeps its id from being reused.
_seen = {}
_fd = -1
_pid = -1


def _log(code) -> None:
    global _fd, _pid
    path = os.path.realpath(code.co_filename)
    if not path.startswith(SRC):
        return
    if _pid != os.getpid():  # first record of this process, or a forked child
        os.makedirs(OUT, exist_ok=True)
        _pid = os.getpid()
        _fd = os.open(
            os.path.join(OUT, f"reach-{_pid}.tsv"), os.O_WRONLY | os.O_CREAT | os.O_APPEND
        )
    os.write(_fd, f"{path}\t{code.co_firstlineno}\t{code.co_name}\n".encode())


def _hook(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code
        _log(code)
    return None


sys.settrace(_hook)
threading.settrace(_hook)
