"""Command line interface.

Exit codes: 0 on success, 2 for domain or precondition failures (including
unreadable or malformed input files), 3 when a computation exceeds a
configured size cap.  With `--stats` every command also writes one JSON
line to stderr: the command, the summed counters of the searches it ran,
the elapsed seconds and, for `calibrate`, the restarts, the converged
starts and the total ascent iterations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Sequence

from . import democratic as dem
from .calibration import DEFAULT_RESTARTS, DEFAULT_TOL, comass
from .config import RunConfig, load_config
from .errors import CapacityError, DomainError, PreconditionError, as_permutation
from .forms import SearchStats, SpecialForm, canonicalize
from .graphs import DistanceMatrix, graph_of_form, to_dot
from .realization import forms_of, realize, solve


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:  # no UTF-8 or no JSON, an int past the digit limit, or nested too deep
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DomainError(str(exc)) from exc


_compact = c_make_encoder and c_make_encoder(  # json's C encoder; None without _json
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ",", False, False, True)
_scalar = (lambda obj: "".join(_compact(obj, 0))) if _compact else json.dumps
_FAST_ITEMS = 4096  # inner items of the largest list written by `_indented`


def _dump(obj) -> str:
    """`json.dumps(obj, indent=2) + "\n"`, byte for byte.

    json encodes in pure Python when it indents.  This encoder joins its
    pieces once and writes a list of ints in one join.  `_indented` writes a
    list of int lists or flat dicts through json's C encoder, if its length
    times its first item's is at most `_FAST_ITEMS`, once per text and call:
    21 ms against 32 ms on the 6-vertex all-2 `realize --all-signs` output
    (best of 7, 2-core Xeon, Python 3.11).  Other scalars and non-str keys
    go through json too, so scalars cannot differ and an unencodable object
    raises json's TypeError.  Circular references are not detected.
    """
    parts: list[str] = []
    _encode(obj, "\n", parts.append, {})  # the memo lives for this call only
    parts.append("\n")
    return "".join(parts)


def _indented(obj, nl: str, memo: dict) -> Optional[str]:
    """obj indented if it lists nonempty int lists, or dicts of identifier keys
    and ints or nonempty int lists, else None.  Without its keys such a compact
    text holds only digits, `-`, `,` and brackets, no `[]` or `{}`, and each inner
    bracket sits at `],[`, `},{` or `: [`: a comma's neighbours show its depth."""
    first = obj[0]
    keys = first if type(first) is dict else ()
    shaped = (all(type(k) is str and k.isidentifier() and (type(v) is int or type(v) is list
                  and v and type(v[0]) is int) for k, v in keys.items()) if keys
              else type(first) in (list, tuple) and first and type(first[0]) is int)
    if not shaped or len(obj) * len(first) > _FAST_ITEMS:
        return None
    text = "".join(_compact(obj, 0))
    if (text, nl) in memo:  # sign classes of one realisation share supports
        return memo[text, nl]
    o, c, i1, i2 = text[1], text[-2], nl + "  ", nl + "    "
    i3 = i2 + "  " if keys else i2  # the indent of the inner ints
    bare = functools.reduce(lambda t, key: t.replace('"' + key + '": ', ""), keys, text)
    if (not bare.strip("-0123456789,[]{}") and "[]" not in bare and "{}" not in bare
            and o + c in ("[]", "{}") and text.count("[") + text.count("{")
            == text.count(c + "," + o) + text.count(": [") + 2):
        body = (text[2:-2].replace(c + "," + o, "\v").replace(',"', "\t")
                .replace(": [", ": [" + i3).replace("]", i2 + "]").replace(",", "," + i3)
                .replace("\t", "," + i2 + '"').replace("\v", i1 + c + "," + i1 + o + i2))
        memo[text, nl] = "[" + i1 + o + i2 + body + i1 + c + nl + "]"
    return memo.get((text, nl))


def _encode(obj, nl: str, put, memo: dict) -> None:
    """Append the encoding of obj; `nl` is a newline and the current indent."""
    if type(obj) is str:
        put(encode_basestring_ascii(obj))
    elif type(obj) is int:
        put(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in obj):  # bool is not int here
            put("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        text = _compact and _indented(obj, nl, memo)
        if text:
            put(text)
            return
        sep = "[" + inner
        for x in obj:
            put(sep)
            _encode(x, inner, put, memo)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            # json's encoding of {key: 0} is '{"<key>": 0}'; it refuses bad keys
            quoted = encode_basestring_ascii(key) if type(key) is str else _scalar({key: 0})[1:-4]
            put(sep + quoted + ": ")
            _encode(value, inner, put, memo)
            sep = "," + inner
        put(nl + "}")
    else:
        put(_scalar(obj))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers for {what}: {text!r}") from exc


@functools.cache  # built once per process; parse_args leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specialforms",
        description="Sign-valued p-forms, their distance graphs, and realisations.",
    )
    parser.add_argument("--config", help="key=value file of size caps")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the random comass starts (default 0)")
    parser.add_argument("-o", "--output", help="write the result here instead of stdout")
    parser.add_argument("--stats", action="store_true",
                        help="print the work counters as one JSON line on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_canon = sub.add_parser("canon", help="canonical orbit representative of a form")
    p_canon.add_argument("form", help="form JSON file")

    p_graph = sub.add_parser("graph", help="distance matrix of a form")
    p_graph.add_argument("form", help="form JSON file")
    p_graph.add_argument("--format", choices=("json", "dot"), default="json")

    p_real = sub.add_parser("realize", help="solve a distance matrix for realisations")
    p_real.add_argument("matrix", help="matrix JSON file")
    p_real.add_argument("--p", type=int, required=True, dest="p")
    p_real.add_argument("--d", type=int, default=None, dest="d",
                        help="keep only solutions of this total dimension")
    p_real.add_argument("--all-signs", action="store_true",
                        help="expand each realisation into its sign classes")
    p_real.add_argument("--invariant-under", default=None, metavar="PERM",
                        help="keep only solutions invariant under this vertex permutation")

    p_dem = sub.add_parser("democratic", help="democratic matrix families")
    dem_sub = p_dem.add_subparsers(dest="dem_command", required=True)

    p_mat = dem_sub.add_parser("matrix", help="build a matrix from a construction")
    group = p_mat.add_mutually_exclusive_group(required=True)
    group.add_argument("--circulant", type=int, metavar="R",
                       help="circulant on R = 2n+1 vertices")
    group.add_argument("--even", type=int, metavar="R",
                       help="index construction on an even vertex count")
    group.add_argument("--product", metavar="FACTORS",
                       help="difference construction over Z_{r1} x ... (comma list)")
    p_mat.add_argument("distances", nargs="?", default=None,
                       help="comma list of distances (defaults to 1, 2, ...)")
    p_mat.add_argument("--format", choices=("json", "dot"), default="json")
    p_mat.add_argument("--p", type=int, default=None, dest="p",
                       help="omit edges at distance p or more from DOT output")
    p_mat.add_argument("--dot", default=None, metavar="PATH",
                       help="additionally write a DOT rendering here")

    p_enum = dem_sub.add_parser("enum", help="symmetry families of a vertex count")
    p_enum.add_argument("r", type=int)

    p_count = dem_sub.add_parser("count", help="number of symmetry families")
    p_count.add_argument("r", type=int)

    p_cls = dem_sub.add_parser(
        "classify", help="classify the matrices whose rows share one value set, "
        "each value twice")
    p_cls.add_argument("r", type=int)
    p_cls.add_argument("--p", type=int, required=True, dest="p")
    values = p_cls.add_mutually_exclusive_group()
    values.add_argument("--max-distance", type=int, default=None)
    values.add_argument("--alphabet", default=None, help="comma list of allowed distances")

    p_cal = sub.add_parser("calibrate", help="comass search for a form")
    p_cal.add_argument("form", help="form JSON file")
    p_cal.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p_cal.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_cal.add_argument("--csv", default=None, metavar="PATH",
                       help="write per-start values here as CSV")

    p_bell = sub.add_parser("bell", help="number of set partitions")
    p_bell.add_argument("m", type=int)

    handlers = (
        (p_canon, _cmd_canon), (p_graph, _cmd_graph), (p_real, _cmd_realize),
        (p_mat, _cmd_democratic_matrix), (p_enum, _cmd_democratic_enum),
        (p_count, _cmd_democratic_count), (p_cls, _cmd_democratic_classify),
        (p_cal, _cmd_calibrate), (p_bell, _cmd_bell),
    )
    for leaf, handler in handlers:
        leaf.set_defaults(handler=handler)
        # -o may also follow the command; SUPPRESS keeps an absent one from
        # overwriting the value given before the command.
        leaf.add_argument("-o", "--output", default=argparse.SUPPRESS,
                          help="write the result here instead of stdout")
    return parser


def _cmd_canon(args, cfg: RunConfig, record: dict) -> str:
    form = SpecialForm.from_dict(_read_json(args.form))
    c = canonicalize(form, dimension_cap=cfg.canon_d_cap, stats=record["search"])
    return _dump(c.to_dict())


def _cmd_graph(args, cfg: RunConfig, record: dict) -> str:
    form = SpecialForm.from_dict(_read_json(args.form))
    m = graph_of_form(form)
    if args.format == "dot":
        return to_dot(m, p=form.p)
    return _dump(m.to_dict())


def _cmd_realize(args, cfg: RunConfig, record: dict) -> str:
    m = DistanceMatrix.from_dict(_read_json(args.matrix))
    sigma = None if args.invariant_under is None else as_permutation(
        _parse_ints(args.invariant_under, "--invariant-under"), m.r, "vertex images"
    )
    solutions = solve(
        m, args.p, d_filter=args.d, vertex_cap=cfg.solver_r_cap, stats=record["search"]
    )
    if sigma is not None:
        solutions = [f for f in solutions if f.is_invariant(sigma)]
    out = {"r": m.r, "p": args.p, "count": len(solutions), "solutions": []}
    for f in solutions:
        real = realize(f)
        entry = {"function": f.to_dict(), "realization": real.to_dict()}
        if args.all_signs:
            entry["forms"] = [g.to_dict() for g in forms_of(real)]
        out["solutions"].append(entry)
    return _dump(out)


def _cmd_democratic_matrix(args, cfg: RunConfig, record: dict) -> str:
    distances = (
        _parse_ints(args.distances, "distances") if args.distances else None
    )
    if args.circulant is not None:
        r = args.circulant
        if r < 3 or r % 2 == 0:
            raise DomainError(f"circulant vertex count must be odd and >= 3, got {r}")
        n = (r - 1) // 2
        m = dem.circulant_matrix(n, distances or range(1, n + 1))
    elif args.even is not None:
        r = args.even
        m = dem.even_example_matrix(r, distances or range(1, r))
    else:
        factors = _parse_ints(args.product, "--product")
        fac = dem.Factorization(factors)
        assignment = (
            dem.DistanceAssignment.from_sequence(fac.factors, distances)
            if distances
            else None
        )
        m = dem.product_matrix(fac, assignment)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(m, p=args.p))
    if args.format == "dot":
        return to_dot(m, p=args.p)
    return _dump(m.to_dict())


def _cmd_democratic_enum(args, cfg: RunConfig, record: dict) -> str:
    families = dem.symmetry_families(args.r)
    return _dump(
        {
            "r": args.r,
            "count": len(families),
            "families": [list(f) for f in families],
        }
    )


def _cmd_democratic_count(args, cfg: RunConfig, record: dict) -> str:
    return _dump(dem.count_symmetry_families(args.r))


def _cmd_democratic_classify(args, cfg: RunConfig, record: dict) -> str:
    alphabet = (
        _parse_ints(args.alphabet, "--alphabet") if args.alphabet else None
    )
    catalog = dem.classify_small(
        args.r,
        args.p,
        max_distance=args.max_distance,
        alphabet=alphabet,
        stats=record["search"],
    )
    return _dump(catalog.to_dict())


def _cmd_calibrate(args, cfg: RunConfig, record: dict) -> str:
    form = SpecialForm.from_dict(_read_json(args.form))
    report = comass(form, restarts=args.restarts, tol=args.tol, seed=args.seed)
    record.update(
        restarts=report.n_restarts,
        converged=sum(report.converged),
        iterations=sum(report.iterations),
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("start,value\n")
            for k, v in enumerate(report.restart_values):
                fh.write(f"{k},{v!r}\n")
    return _dump(report.to_dict())


def _cmd_bell(args, cfg: RunConfig, record: dict) -> str:
    return _dump(dem.bell(args.m))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # What --stats prints: the handler's searches add to "search", and a
    # handler may add fields of its own.
    record = {"search": SearchStats()}
    start = time.perf_counter()
    try:
        cfg = load_config(args.config)
        text = args.handler(args, cfg, record)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.stats:
            command = [args.command, getattr(args, "dem_command", None)]
            print(json.dumps({
                "command": " ".join(filter(None, command)),
                **asdict(record.pop("search")),
                **record,
                "seconds": time.perf_counter() - start,
            }), file=sys.stderr)
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
