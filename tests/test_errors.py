"""The fault table in ``dpfed.errors``, end to end: each error class
exits ``dpfed`` with its exit code and stderr label, ends a session with
its ABORT code, and the README states both. A class added to
``errors.py`` needs a row in ``TABLE``."""

import inspect
import re
from pathlib import Path

import pytest

from dpfed import cli, errors, federation
from dpfed.wire import ABORT_BUDGET, ABORT_DECODE, ABORT_PROTOCOL, ABORT_TIMEOUT, abort_name
from test_federation import make_spec, session_cfg

README = Path(__file__).resolve().parent.parent / "README.md"

# class: (exit code, stderr before the error's text, ABORT code)
TABLE = {
    errors.DpFedError: (2, "dpfed: ", ABORT_PROTOCOL),
    errors.InvalidValue: (2, "dpfed: ", ABORT_PROTOCOL),
    errors.BudgetExceeded: (5, "dpfed: budget exhausted: ", ABORT_BUDGET),
    errors.ProtocolError: (4, "dpfed: protocol failure: ", ABORT_PROTOCOL),
    errors.DecodeError: (4, "dpfed: protocol failure: ", ABORT_DECODE),
    errors.TransportError: (3, "dpfed: transport failure: ", ABORT_DECODE),
    errors.TimedOut: (3, "dpfed: transport failure: ", ABORT_TIMEOUT),
}
CLASSES = list(TABLE)
IDS = [cls.__name__ for cls in CLASSES]


def test_table_has_a_row_for_every_error_class():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, Exception)}
    assert defined == set(TABLE)


def _raising(exc):
    def command(*_):
        raise exc

    return command


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_error_exits_the_cli_with_its_code_and_label(cls, monkeypatch, capsys):
    code, prefix, _ = TABLE[cls]
    monkeypatch.setattr(cli, "cmd_inspect", _raising(cls("what went wrong")))
    assert cli.main(["inspect", "--data", "unread"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", prefix + "what went wrong\n")


def test_os_error_exits_the_cli_as_the_base_class(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_inspect", _raising(OSError("disk gone")))
    assert cli.main(["inspect", "--data", "unread"]) == 2
    assert capsys.readouterr().err == "dpfed: disk gone\n"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_error_ends_a_session_with_its_abort_code(cls, monkeypatch):
    abort = federation._abort(cls("what went wrong"))
    assert (abort.code, abort.reason) == (TABLE[cls][2], "what went wrong")
    # raised in a worker's release, it reaches the coordinator as that ABORT
    monkeypatch.setattr(federation.WorkerReplica, "make_release", _raising(cls("in the release")))
    summary = federation.inproc_session(session_cfg(2, 3), [make_spec(0), make_spec(1)]).summary
    assert (summary.aborted, summary.steps_completed) == (TABLE[cls][2], 0)


@pytest.mark.parametrize(
    "aborted, code",
    [(None, 0), (ABORT_BUDGET, 5), (ABORT_TIMEOUT, 4), (ABORT_DECODE, 4), (ABORT_PROTOCOL, 4)],
)
def test_session_exit_code(aborted, code):
    assert errors.session_exit_code(aborted) == code


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_readme_states_the_table_row(cls):
    code, _, abort = TABLE[cls]
    row = rf"^\| `{cls.__name__}` \| {code} \| ABORT_{abort_name(abort).upper()} \|"
    assert re.search(row, README.read_text(), re.MULTILINE), row
