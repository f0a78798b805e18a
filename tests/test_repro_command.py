"""The ``repro`` command: its subcommands and its one error boundary.

The subcommands' behaviour is tested with their subsystems (``tests/dist``,
``tests/svc``, ``tests/fuzz``, ``tests/obs``); this module pins the
command's surface and that expected failures end as one stderr line and
exit code 1 instead of a traceback.
"""

import argparse
import socket

import pytest

from repro.cli import build_parser, main
from repro.svc.service import SweepService


def _one_error_line(err: str, command: str) -> str:
    """The single ``repro <command>: ...`` line among the logged diagnostics."""
    assert "Traceback" not in err
    [line] = [line for line in err.splitlines() if line.startswith("repro ")]
    assert line.startswith(f"repro {command}: ")
    return line


def test_parser_exposes_exactly_the_subcommands():
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted([
        "run", "worker", "serve", "submit", "status", "results", "cache",
        "shutdown", "fuzz", "obs"])


def test_refused_address(capsys):
    with socket.socket() as bound:
        bound.bind(("127.0.0.1", 0))  # bound but never listening: refused
        address = "%s:%d" % bound.getsockname()
        assert main(["status", "--address", address]) == 1
    _one_error_line(capsys.readouterr().err, "status")


def test_service_error(capsys):
    with SweepService() as svc:
        assert main(["results", "--address", svc.control_address, "job-9"]) == 1
    assert "unknown job id" in _one_error_line(capsys.readouterr().err, "results")


def test_submit_wait_timeout(capsys):
    # no worker ever joins, so the job is still running when --wait gives up
    with SweepService() as svc:
        assert main(["submit", "--address", svc.control_address, "thrashing",
                     "--wait", "--timeout", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "job-1\n"
    assert "job-1 still" in _one_error_line(captured.err, "submit")


def test_run_min_workers_timeout(capsys):
    assert main(["--quiet", "run", "thrashing", "--scale", "smoke",
                 "--worker-wait", "0.2"]) == 1
    assert "0 of 1 workers joined" in _one_error_line(capsys.readouterr().err, "run")


@pytest.mark.parametrize("argv", [
    ["run", "no_such_scenario"],
    ["submit", "no_such_scenario", "--address", "127.0.0.1:1"],
], ids=["run", "submit"])
def test_unknown_scenario(argv, capsys):
    assert main(["--quiet", *argv]) == 1
    message = _one_error_line(capsys.readouterr().err, argv[0])
    assert message.startswith(f"repro {argv[0]}: unknown scenario 'no_such_scenario'; available:")


def test_unexpected_error_keeps_its_traceback(monkeypatch):
    # a bug in a handler is not an expected failure: main re-raises it
    def broken_handler(args):
        raise KeyError("state")

    monkeypatch.setattr("repro.cli._obs", broken_handler)
    with pytest.raises(KeyError, match="state"):
        main(["obs", "spans.jsonl"])
