"""Fuzzed CLI: random argv, config files and permutation files.

Every run of main must end in exit code 0, or exit code 1 with exactly
one `error:` line on stderr, never a traceback.  Argv is built from the
real parser, so new subcommands and flags are fuzzed as they appear.
Sizes stay at most 40 and --workers at most 2, so an example costs
milliseconds; every written path is under the test's tmp_path.
"""

import argparse
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrperm.cli import main, make_parser
from qrperm.config import RunConfig

JUNK = ["", " ", "x", "-", "--", "1.5", "-0", "nan", "inf", "1e3", "0x1f",
        "1,,2", ",", "a=b", "#", "rat:1/0", "sqrt:0", "quad:1,2", "é",
        "\x00"]
ALPHAS = ["golden", "-golden", "sqrt:2", "-sqrt:7", "sqrt:4", "rat:5/13",
          "rat:-3/7", "quad:1,1,5,2", "quad:0,1,2,1"]
SMALL = st.integers(-3, 40)
WORKERS = st.sampled_from(["-1", "0", "1", "2"])
# the flags that bound a command's work; always given, so no default
# size (pmax 127, limit 1000, n_list up to 512) is reached
SIZE_FLAGS = {"n", "pmin", "pmax", "nmin", "nmax", "limit", "n_list"}
PATH_FLAGS = {"out", "out_file", "from_file"}


# main parses with this one parser, built once per process
PARSER = make_parser()
SUBPARSERS = next(a for a in PARSER._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
COMMANDS = {name: [a for a in sp._actions if a.option_strings
                   and a.dest != "help"]
            for name, sp in SUBPARSERS.items()}


def _parser_state():
    """What a parse could leave behind in the shared parser: every
    parser's defaults and every action's settings."""
    return [(parser._defaults,
             [(a.dest, a.option_strings, a.default, a.required, a.nargs)
              for a in parser._actions])
            for parser in (PARSER, *SUBPARSERS.values())]


PARSER_STATE = _parser_state()


def _mostly(valid, junk=JUNK):
    """valid nineteen times in twenty, else a junk string."""
    return st.integers(0, 19).flatmap(
        lambda i: st.sampled_from(junk) if i == 0 else valid)


def _int_list():
    return st.lists(SMALL, max_size=4).map(
        lambda xs: ",".join(map(str, xs)))


def _value(draw, action, root):
    """One drawn value for a flag that takes one."""
    dest = action.dest
    if dest in PATH_FLAGS:
        return os.path.join(root, draw(st.sampled_from(
            ["", "out", "perm.txt", "missing.txt", "sub/dir"])))
    if dest == "workers":
        return draw(WORKERS)
    if action.choices:
        return draw(_mostly(st.sampled_from(list(action.choices))))
    if dest in ("n_list", "a_values", "targets"):
        return draw(_mostly(_int_list()))
    if dest == "alphas":
        return draw(_mostly(st.lists(st.sampled_from(ALPHAS), min_size=1,
                                     max_size=3).map(",".join)))
    if dest == "alpha":
        return draw(_mostly(st.sampled_from(ALPHAS)))
    if dest == "bound":
        return draw(_mostly(st.sampled_from(["1", "2", "5", "7/2", "1/3",
                                             "0", "-2", "3/0"])))
    if action.type is int:
        return draw(_mostly(SMALL.map(str)))
    if action.type is float:
        return draw(_mostly(st.sampled_from(["0", "0.5", "1", "2.5",
                                             "-1"])))
    return draw(_mostly(st.sampled_from(["mean_dstar", "dstar", "max_gap",
                                         "demo"])))


@st.composite
def argvs(draw, root):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]:
        if action.dest not in SIZE_FLAGS and not draw(st.booleans()):
            continue
        flag = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.dest in SIZE_FLAGS and action.dest != "n_list":
            value = draw(_mostly(SMALL.map(str)))
        else:
            value = _value(draw, action, root)
        # half the pairs are joined with =, the one way a value such as
        # -golden or -1,4 reaches the command instead of reading as a flag
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        argv[:0] = ["--config", os.path.join(root, draw(st.sampled_from(
            ["run.cfg", "run.cfg", "missing.cfg", "", "\0"])))]
    return argv


KEYS = [f.name for f in fields(RunConfig)]


@st.composite
def config_lines(draw, root):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(KEYS + ["workes", "command", ""]))
        if key == "workers":
            value = draw(WORKERS)
        elif key in PATH_FLAGS:
            value = os.path.join(root, "cfg_out")
        elif key in ("command", "family", "kind"):
            value = draw(_mostly(st.sampled_from(["psi", "sos", "wsum"])))
        else:
            value = draw(_mostly(SMALL.map(str)))
        sep = draw(st.sampled_from([" = ", "=", " "]))
        lines.append(f"{key}{sep}{value}")
    return "\n".join(lines) + "\n"


@st.composite
def perm_texts(draw):
    n = draw(st.integers(0, 12))
    image = draw(st.permutations(range(n)) | st.lists(SMALL, max_size=8))
    head = draw(st.sampled_from([str(n), str(n + 1), "x", ""]))
    body = " ".join(map(str, image))
    tail = draw(st.sampled_from(["# family=custom", "# family=psi k=2",
                                 "# ", "#", "family=x", "# =a b= c"]))
    lines = [head, body, tail][:draw(st.integers(1, 3))]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(data, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QRPERM_WORKERS", raising=False)
    monkeypatch.delenv("QRPERM_OUTDIR", raising=False)
    root = tempfile.mkdtemp(dir=tmp_path)
    with open(os.path.join(root, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(data.draw(config_lines(root), label="config"))
    with open(os.path.join(root, "perm.txt"), "w", encoding="utf-8") as fh:
        fh.write(data.draw(perm_texts(), label="perm"))
    argv = data.draw(argvs(root), label="argv")
    monkeypatch.chdir(root)         # stray relative paths land in root
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:       # only --help and --version exit
        pytest.fail(f"SystemExit({exc.code}) from {argv}")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1), argv
    assert make_parser() is PARSER and _parser_state() == PARSER_STATE
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv,
                                                                    err)
