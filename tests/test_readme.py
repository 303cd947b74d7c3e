"""README.md's examples, replayed: every `$ bentfn ...` block through
`cli.main` in one working directory, in README order, and the library
example through `exec`."""

import re
import shlex
from pathlib import Path

from bentfn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TIMING = re.compile(r"\(\d+\.\d+s\)")
EXIT = re.compile(r"^(.*?)\s+\(exit code (\d+)\)$")


def _blocks(text):
    """The fenced blocks of text as (info string, lines)."""
    blocks, current = [], None
    for line in text.splitlines():
        if line.startswith("```"):
            if current is None:
                current = (line[3:].strip(), [])
            else:
                blocks.append(current)
                current = None
        elif current is not None:
            current[1].append(line)
    return blocks


def _examples():
    """Each `$ bentfn` command with the lines the README shows under it."""
    out = []
    for _, lines in _blocks(README.read_text()):
        if not lines or not lines[0].startswith("$ bentfn "):
            continue
        for line in lines:
            if line.startswith("$ "):
                out.append((shlex.split(line[2:]), []))
            else:
                out[-1][1].append(line)
    return out


def _fits(want, got):
    """Do the lines got fit want, where a line `...` stands for any run
    of lines and a line ending in `, ...` for any line it begins?"""
    if not want:
        return not got
    head, rest = want[0], want[1:]
    if head == "...":
        return any(_fits(rest, got[i:]) for i in range(len(got) + 1))
    if not got:
        return False
    same = got[0].startswith(head[:-3]) if head.endswith(", ...") else got[0] == head
    return same and _fits(rest, got[1:])


def test_readme_commands_replay(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = _examples()
    assert {argv[1] for argv, _ in examples} == {"construct", "analyze", "msubspace", "decompose",
                                                 "verify"}
    failures = []
    for argv, shown in examples:
        want_code, want_out, want_err = 0, shown, []
        if len(shown) == 1 and EXIT.match(shown[0]):
            err, code = EXIT.match(shown[0]).groups()
            want_code, want_out, want_err = int(code), [], [err]
        code = main(argv[1:])
        got = capsys.readouterr()
        got_out = TIMING.sub("(0.00s)", got.out).splitlines()
        want_out = [TIMING.sub("(0.00s)", line) for line in want_out]
        if (code, got.err.splitlines()) != (want_code, want_err) or not _fits(want_out, got_out):
            failures.append((" ".join(argv), code, got.out + got.err))
    assert failures == []


def test_readme_library_example(capsys):
    (lines,) = [lines for info, lines in _blocks(README.read_text()) if info == "python"]
    exec("\n".join(lines), {})
    printed = [line.split("#")[-1].strip() for line in lines if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == printed
