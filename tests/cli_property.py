"""Every command line input ends in exit 0, 2 or 3, with no traceback.

A derandomized hypothesis property over the in-process `cli.main`, for
`canon`, `graph`, `calibrate`, `realize`, `bell` and `democratic enum`,
`count`, `matrix` and `classify`.  Its inputs are a form file and the
pentagon matrix file, as they are, with one node replaced by junk or
removed, or as raw bytes that are no JSON object; and extreme integers for
every integer flag and argument.  Run it as a script:

    PYTHONPATH=src python tests/cli_property.py

It first caps its own address space at AS_LIMIT bytes, so that an input
that a missing size cap lets grow fails the property with a MemoryError
instead of exhausting the machine's memory; numpy, loaded by `calibrate`,
runs one BLAS thread.  The whole property peaks at about 210 MB of address
space.  On success it prints the number of examples run and the seconds
they took, about 5 s on a 2-core Xeon.  `test_cli.py` runs it in a fresh
interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import os
import resource
import tempfile
import time
from pathlib import Path

AS_LIMIT = 3 * 2**30
EXAMPLES = 2000

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT if hard < 0 else min(AS_LIMIT, hard), hard))

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specialforms.cli import main  # noqa: E402

FORM = {"d": 4, "p": 2, "terms": [{"indices": [1, 2], "sign": 1},
                                  {"indices": [3, 4], "sign": -1}]}
PENTAGON = {"r": 5, "entries": [[0, 1, 2, 2, 1], [1, 0, 1, 2, 2], [2, 1, 0, 1, 2],
                                [2, 2, 1, 0, 1], [1, 2, 2, 1, 0]]}
DROP = object()  # a mutation that removes the node
JUNK = (DROP, None, True, 1.5, math.nan, -1, 0, 11, 10**40, -10**40, "x", [], [[1]], {},
        {"indices": [1, 2], "sign": 1})
RAW = (b"", b"\xff\xfe{}", b'{"d": 4', b"[1, 2]", b"[" * 5000 + b"]" * 5000,
       b'{"d": 1' + b"0" * 5000 + b', "p": 2, "terms": []}')
# small values, each cap plus one, and integers past 64 bits
EXTREME = (-10**40, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 1025, 1501, 2**30 + 1,
           2**63, 10**40, 10**400 + 1)
TOKENS = ("1.5", "x", "", "1" + "0" * 5000)  # argparse refuses these
INTEGER = st.sampled_from((*map(str, EXTREME), *TOKENS)) | st.integers().map(str)
LISTS = st.sampled_from(("1,2", "1", "3,3", "2,513", "1,1,2,2", "0,1", "1,2,3", "", "x",
                         "1,1,1", "2,3,4,5,1", "5,4,3,2,1", "1,2,3,4,5", f"{10**40},1,2,3,4"))


def _nodes(obj, path=()):
    """The path of every node below the root of a JSON object."""
    keys = obj if isinstance(obj, dict) else range(len(obj)) if isinstance(obj, list) else ()
    for key in keys:
        yield (*path, key)
        yield from _nodes(obj[key], (*path, key))


def _mutations(obj, paths) -> tuple[bytes, ...]:
    """Every copy of the object, as file bytes, with one of these nodes
    replaced by junk or removed."""
    out = []
    for *path, last in paths:
        for junk in JUNK:
            copy = json.loads(json.dumps(obj))
            parent = functools.reduce(operator.getitem, path, copy)
            if junk is DROP:
                del parent[last]
            else:
                parent[last] = junk
            out.append(json.dumps(copy).encode())
    return tuple(out)


def files(obj):
    """File bytes: the object itself, junk, raw bytes, or a copy with one
    node mutated.  A top-level field, where the size caps read, is drawn as
    often as all other nodes together."""
    whole = (json.dumps(obj).encode(), *(json.dumps(j).encode() for j in JUNK[1:]), *RAW)
    top = [path for path in _nodes(obj) if len(path) == 1]
    return (st.sampled_from(whole) | st.sampled_from(_mutations(obj, top))
            | st.sampled_from(_mutations(obj, _nodes(obj))))


FORM_FILES = files(FORM)
MATRIX_FILES = files(PENTAGON)
# calibrate, the one command that allocates numpy arrays by the size of its
# input, is drawn twice as often as the others
COMMANDS = st.sampled_from(("canon", "graph", "calibrate", "calibrate", "realize", "bell",
                            "enum", "count", "matrix", "classify"))
MATRIX_KINDS = st.sampled_from(("--circulant", "--even", "--product"))
CLASSIFIED = st.sampled_from(("3", "5", "7"))
VALUES = st.sampled_from(("--max-distance", "--alphabet", None))


@st.composite
def runs(draw):
    """A command line, with "FILE" where the input file goes, and the file's bytes."""
    n = lambda: draw(INTEGER)  # noqa: E731
    flag = lambda: draw(st.booleans())  # noqa: E731
    command = draw(COMMANDS)
    if command in ("canon", "graph", "calibrate"):
        argv = [command, "FILE"]
        if command == "graph" and flag():
            argv += ["--format", "dot"]
        if command == "calibrate":
            argv = [*(["--seed", n()] if flag() else []), *argv, "--restarts", "2"]
        return argv, draw(FORM_FILES)
    if command == "realize":
        argv = ["realize", "FILE", "--p", n(), *(["--d", n()] if flag() else [])]
        if flag():
            argv += ["--all-signs"] if flag() else ["--invariant-under", draw(LISTS)]
        return argv, draw(MATRIX_FILES)
    if command == "bell":
        return ["bell", n()], None
    if command in ("enum", "count"):
        return ["democratic", command, n()], None
    if command == "matrix":
        kind = draw(MATRIX_KINDS)
        argv = ["democratic", "matrix", kind, draw(LISTS) if kind == "--product" else n()]
        argv += [draw(LISTS)] if flag() else []
        argv += ["--format", "dot", "--p", n()] if flag() else []
        return argv, None
    # r is one of the classified primes half the time, so that the
    # run reaches the caps, and --max-distance is --p, its largest value, half
    # the time
    p = n()
    argv = ["democratic", "classify", draw(CLASSIFIED) if flag() else n(), "--p", p]
    values = draw(VALUES)
    if values == "--max-distance":
        argv += [values, p if flag() else n()]
    elif values == "--alphabet":
        argv += [values, draw(LISTS)]
    return argv, None


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    return code, err.getvalue()


def check(directory: Path) -> int:
    """Run the property; the number of examples it ran."""
    path, count = directory / "input.json", 0

    @settings(derandomize=True, database=None, max_examples=EXAMPLES, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(runs())
    def ends_in_an_exit_code(case):
        nonlocal count
        count += 1
        argv, data = case
        if data is not None:
            path.write_bytes(data)
        code, err = run([str(path) if a == "FILE" else a for a in argv])
        shown = data and data[:200]
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, shown, code, err)

    ends_in_an_exit_code()
    return count


if __name__ == "__main__":
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        examples = check(Path(tmp))
    print(examples, f"{time.perf_counter() - start:.2f}")
