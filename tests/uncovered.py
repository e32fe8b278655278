"""Lines of the dynlab package that no test runs.

Runs pytest in this process under a ``sys.settrace`` line trace, then
prints, per module of ``src/dynlab``, the lines that compile to code
(read from the code objects' ``co_lines``) and never ran.  Standard
library only.

    python3 tests/uncovered.py                  # pytest -q
    python3 tests/uncovered.py tests/test_cli.py   # any pytest arguments
    python3 tests/uncovered.py --expect tests/uncovered_exempt.txt [ARGS]

The exit status is pytest's.  With ``--expect FILE`` (the first two
arguments) it is 1 instead of 0 when a line that never ran is not in
the exempt list FILE, and each such line is printed.  An entry of FILE
is ``path: text``, the module's path from the repository root and the
stripped source text of one exempt line, so an entry follows its line
when the lines above it move; blank lines and lines starting with
``#`` are comments.  Tracing makes the run several times slower than a
plain one, and lines run only by a test's subprocess do not count.
"""

import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dynlab"
DEFAULT_ARGS = ["-q"]


def code_lines(path):
    """Line numbers that carry bytecode in the module at ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args):
    """pytest's exit status on ``args`` and the (file, line) pairs of
    the package that ran."""
    prefix, ran = str(PACKAGE), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, ran


def spans(numbers):
    """Sorted numbers as "a-b" runs of consecutive values."""
    out, numbers = [], sorted(numbers)
    for k, n in enumerate(numbers):
        if k and n == numbers[k - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def exempt_lines(path):
    """The (module path, stripped line text) entries of an exempt list."""
    entries = set()
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, text = line.partition(": ")
            entries.add((name, text.strip()))
    return entries


def main(args):
    exempt = None
    if args[:1] == ["--expect"]:
        exempt, args = exempt_lines(args[1]), args[2:]
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    # for the tests that start a Python subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    status, ran = run_traced(args or DEFAULT_ARGS)
    missed, unexpected = False, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path) - {line for name, line in ran
                                    if name == str(path)}
        if lines:
            missed = True
            name = str(path.relative_to(ROOT))
            print(f"{name}: {spans(lines)}")
            if exempt is not None:
                texts = path.read_text().splitlines()
                unexpected += [f"{name}:{n}: {texts[n - 1].strip()}"
                               for n in sorted(lines)
                               if (name, texts[n - 1].strip()) not in exempt]
    if not missed:
        print("every line of src/dynlab ran")
    if exempt is None:
        return status
    for line in unexpected:
        print(f"not exempt: {line}")
    print(f"{len(unexpected)} lines that never ran are not exempt")
    return status or int(bool(unexpected))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
