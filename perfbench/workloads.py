"""The four benchmark workloads.

Each workload generates its inputs from the workload seed when it is
constructed (that is the set-up the benchmark times) and then runs passes
over a fixed job list.  A pass calls `job(name, run, check)` once per step:
`run` is the timed library work, `check` compares its output with values
known from outside the search under test and returns the problems found
plus the exact material the step's digest is taken over.  Library
functions are always looked up as module attributes at call time, so the
traced run sees every call.

Why these workloads: each layer that later work plans to speed up does
most of the work in exactly one of them and little or none in the others.
`octonion` is dominated by `forms.canonicalize`, `solver` by
`realization.solve`, `classify` by the `democratic` enumeration and the
`graphs` automorphism and relabeling searches, `comass` by
`calibration.comass`.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from specialforms import cli, forms, graphs, realization


# ---------------------------------------------------------------------------
# Inputs built without the library's searches.
# ---------------------------------------------------------------------------


def _fano_lines() -> list[tuple[int, int, int]]:
    """Lines (i, i+1, i+3) mod 7 on points 1..7; e_a e_b = e_c along each."""
    return [(i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8)]


def octonion_table() -> dict[tuple[int, int], tuple[int, int]]:
    """Products e_i e_j = sign * e_k of the imaginary octonion units."""
    table = {}
    for a, b, c in _fano_lines():
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = (1, z)
            table[(y, x)] = (-1, z)
    return table


def octonion_multiply(table, x, y) -> list[float]:
    out = [0.0] * 8
    out[0] = x[0] * y[0] - sum(x[i] * y[i] for i in range(1, 8))
    for i in range(1, 8):
        out[i] += x[0] * y[i] + y[0] * x[i]
        for j in range(1, 8):
            if i != j:
                sign, k = table[(i, j)]
                out[k] += sign * x[i] * y[j]
    return out


def octonion_terms() -> list[tuple[tuple[int, int, int], int]]:
    """The 3-form <e_i e_j, e_k> on sorted triples, checked against the
    composition identity |xy| = |x||y| so a wrong table cannot pass."""
    table = octonion_table()
    rng = random.Random(0)
    for _ in range(20):
        x = [rng.gauss(0, 1) for _ in range(8)]
        y = [rng.gauss(0, 1) for _ in range(8)]
        if abs(math.hypot(*octonion_multiply(table, x, y)) - math.hypot(*x) * math.hypot(*y)) > 1e-9:
            raise RuntimeError("octonion table violates the composition identity")
    terms = []
    for (i, j), (sign, k) in sorted(table.items()):
        if i < j < k:
            terms.append(((i, j, k), sign))
    return terms


def all_two(r: int) -> list[list[int]]:
    return [[0 if i == j else 2 for j in range(r)] for i in range(r)]


def relabel(entries, perm) -> list[list[int]]:
    """Matrix with vertex v renamed perm[v] (0-based)."""
    r = len(entries)
    out = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            out[perm[i]][perm[j]] = entries[i][j]
    return out


def circulant(distances, r: int) -> list[list[int]]:
    return [
        [0 if i == j else distances[min((i - j) % r, (j - i) % r) - 1] for j in range(r)]
        for i in range(r)
    ]


def random_perm(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_signed_perm(rng, d: int):
    sigma = tuple(v + 1 for v in random_perm(rng, d))
    eta = tuple(rng.choice((1, -1)) for _ in range(d))
    return forms.SignedPermutation(sigma, eta)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(argv) -> int:
    return cli.main([str(a) for a in argv])


def cli_problems(rc: int) -> list[str]:
    return [] if rc == 0 else [f"CLI exit code {rc}"]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Octonion:
    """CLI `realize --all-signs` of the 7-point all-2 matrix, then every
    sign-class form against the octonion 3-form; one job per solution."""

    SOLUTIONS = 30
    CLASSES = 8

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.workdir = workdir
        self.matrix = relabel(all_two(7), random_perm(rng, 7))
        self.matrix_path = write_json(workdir / "m7.json", {"r": 7, "entries": self.matrix})
        reference = forms.SpecialForm.from_terms(7, 3, octonion_terms())
        self.references = [
            forms.apply(random_signed_perm(rng, 7), reference) for _ in range(self.SOLUTIONS)
        ]
        self.form_perms = [
            [random_signed_perm(rng, 7) for _ in range(self.CLASSES)] for _ in range(self.SOLUTIONS)
        ]

    def run_pass(self, job) -> None:
        out = self.workdir / "realize.json"
        solutions = []

        def check_cli(rc):
            if rc != 0:
                return cli_problems(rc), rc
            data = out.read_bytes()
            solutions.extend(json.loads(data)["solutions"])
            problems = []
            if len(solutions) != self.SOLUTIONS:
                problems.append(f"{len(solutions)} solutions, expected {self.SOLUTIONS}")
            return problems, data

        job(
            "realize",
            lambda: run_cli(["-o", out, "realize", self.matrix_path, "--p", 3, "--all-signs"]),
            check_cli,
            counted=False,
        )
        for k, sol in enumerate(solutions[: self.SOLUTIONS]):
            job(f"solution-{k + 1:02d}", lambda: self._solution(k, sol), lambda res: self._check(sol, res))

    def _solution(self, k: int, sol: dict):
        f = realization.GraphFunction.from_dict(sol["function"])
        real = realization.realize(f)
        classes = realization.forms_of(real)
        verdicts = [
            forms.orbit_equivalent(forms.apply(g, form), self.references[k])
            for g, form in zip(self.form_perms[k], classes)
        ]
        return f, real, classes, verdicts

    def _check(self, sol: dict, res):
        f, real, classes, verdicts = res
        problems = []
        if not all(len(s) == 3 and v == 1 for s, v in f.values):
            problems.append("solution is not supported on triples with weight 1")
        if f.dimension != 7 or real.d != 7:
            problems.append(f"dimension {f.dimension}, realisation in R^{real.d}, expected 7")
        if len(classes) != self.CLASSES or len(verdicts) != self.CLASSES:
            problems.append(f"{len(classes)} sign classes, expected {self.CLASSES}")
        if sum(verdicts) != 1:
            problems.append(f"{sum(verdicts)} classes match the octonion form, expected 1")
        class_dicts = [g.to_dict() for g in classes]
        if real.to_dict() != sol["realization"] or class_dicts != sol["forms"]:
            problems.append("library output differs from the CLI output")
        return problems, [sol["function"], real.to_dict(), class_dicts, verdicts]


class Solver:
    """CLI `realize` at the solver cap: the 8-vertex all-2 matrix proves
    emptiness, the 6-vertex one enumerates 210 solutions with all signs."""

    JOBS = (
        # name, r, p, extra flags, expected solutions
        ("r8-p3", 8, 3, [], 0),
        ("r6-p4-all-signs", 6, 4, ["--all-signs"], 210),
    )

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.workdir = workdir
        self.inputs = {}
        for name, r, _, _, _ in self.JOBS:
            entries = relabel(all_two(r), random_perm(rng, r))
            self.inputs[name] = (entries, write_json(workdir / f"{name}.json", {"r": r, "entries": entries}))

    def run_pass(self, job) -> None:
        for name, r, p, flags, expected in self.JOBS:
            entries, path = self.inputs[name]
            out = self.workdir / f"{name}.out.json"
            job(
                name,
                lambda: run_cli(["-o", out, "realize", path, "--p", p, *flags]),
                lambda rc: self._check(rc, out, entries, expected),
            )

    @staticmethod
    def _check(rc, out: Path, entries, expected: int):
        if rc != 0:
            return cli_problems(rc), rc
        problems = []
        data = out.read_bytes()
        result = json.loads(data)
        if result["count"] != expected or len(result["solutions"]) != expected:
            problems.append(f"{result['count']} solutions, expected {expected}")
        m = graphs.DistanceMatrix.from_rows(entries)
        for sol in result["solutions"]:
            f = realization.GraphFunction.from_dict(sol["function"])
            if f.induced_matrix() != m:
                problems.append(f"solution {f.values} induces another matrix")
            if not realization.verify(realization.realize(f), m):
                problems.append(f"realisation of {f.values} fails verify")
        return problems, data


class Classify:
    """CLI `democratic classify` at r=7 and r=5, then `symmetries` and
    `solve` on every admissible catalog entry, relabeled by the seed."""

    JOBS = (
        # name, r, p, max distance, candidates, democratic, admissible
        ("classify-7", 7, 3, 3, 13950, 720, 360),
        ("classify-5", 5, 2, 2, 12, 12, 12),
    )

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.workdir = workdir
        self.perms = {
            name: [random_perm(rng, r) for _ in range(democratic_count)]
            for name, r, _, _, _, democratic_count, _ in self.JOBS
        }

    def run_pass(self, job) -> None:
        for name, r, p, max_d, candidates, democratic_count, admissible in self.JOBS:
            out = self.workdir / f"{name}.json"
            job(
                name,
                lambda: self._classify(name, out, r, p, max_d),
                lambda res: self._check(res, out, r, candidates, democratic_count, admissible),
            )

    def _classify(self, name, out: Path, r, p, max_d):
        rc = run_cli(["-o", out, "democratic", "classify", r, "--p", p, "--max-distance", max_d])
        if rc != 0:
            return rc, None, []
        catalog = json.loads(out.read_bytes())
        checked = []
        for entry, perm in zip(catalog["democratic"], self.perms[name]):
            m = graphs.DistanceMatrix.from_dict(entry["matrix"])
            if not graphs.is_admissible(m):
                continue
            relabeled = graphs.DistanceMatrix.from_rows(relabel(m.entries, perm))
            checked.append((perm, relabeled, graphs.symmetries(relabeled), realization.solve(relabeled, p)))
        return rc, catalog, checked

    @staticmethod
    def _check(res, out: Path, r, candidates, democratic_count, admissible):
        rc, catalog, checked = res
        if rc != 0:
            return cli_problems(rc), rc
        problems = []
        data = out.read_bytes()
        if catalog["candidates"] != candidates:
            problems.append(f"{catalog['candidates']} candidates, expected {candidates}")
        if len(catalog["democratic"]) != democratic_count:
            problems.append(f"{len(catalog['democratic'])} democratic, expected {democratic_count}")
        if catalog["theorem_verified"] is not True:
            problems.append("theorem_verified is not true")
        for entry in catalog["democratic"]:
            src, wit, dist = entry["matrix"]["entries"], entry["witness"], entry["circulant_distances"]
            if wit is None or dist is None:
                problems.append("democratic entry without a circulant witness")
                continue
            dst = circulant(dist, r)
            if any(dst[wit[v] - 1][wit[w] - 1] != src[v][w] for v in range(r) for w in range(r)):
                problems.append(f"witness {wit} does not map onto circulant {dist}")
        if len(checked) != admissible:
            problems.append(f"{len(checked)} admissible entries, expected {admissible}")
        material = [data.decode()]
        for perm, m, report, sols in checked:
            e = m.entries
            if not report.transitive:
                problems.append("symmetries of a democratic entry are not transitive")
            for g in report.generators:
                if any(e[g[v] - 1][g[w] - 1] != e[v][w] for v in range(r) for w in range(r)):
                    problems.append(f"generator {g} is not an automorphism")
            if not sols:
                problems.append("admissible catalog entry has no realisation")
            for f in sols:
                if f.induced_matrix() != m:
                    problems.append(f"solution {f.values} induces another matrix")
            # undo the relabeling so the digest does not depend on the seed
            inverse = [0] * r
            for v, image in enumerate(perm):
                inverse[image] = v
            unrelabeled = sorted(
                sorted((sorted(inverse[v - 1] + 1 for v in s), val) for s, val in f.values) for f in sols
            )
            material.append([report.order, report.transitive, unrelabeled])
        return problems, material


class Comass:
    """CLI `calibrate` at 200 restarts on three forms, each moved by a
    random signed permutation; the seed also drives the restarts."""

    FORMS = (
        # name, d, p, terms, comass
        ("octonion", 7, 3, None, 1.0),
        ("e12+e34", 4, 2, [((1, 2), 1), ((3, 4), 1)], 1.0),
        ("e12+e13", 3, 2, [((1, 2), 1), ((1, 3), 1)], math.sqrt(2.0)),
    )
    RESTARTS = 200
    TOL = 1e-6

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.workdir = workdir
        self.comass_seed = rng.randrange(2**31)
        self.paths = {}
        for name, d, p, terms, _ in self.FORMS:
            f = forms.SpecialForm.from_terms(d, p, terms or octonion_terms())
            moved = forms.apply(random_signed_perm(rng, d), f)
            self.paths[name] = write_json(workdir / f"{name}.json", moved.to_dict())

    def run_pass(self, job) -> None:
        for name, _, _, _, target in self.FORMS:
            out = self.workdir / f"{name}.out.json"
            argv = ["-o", out, "--seed", self.comass_seed, "calibrate", self.paths[name], "--restarts", self.RESTARTS]
            job(name, lambda: run_cli(argv), lambda rc: self._check(rc, out, name, target))

    def _check(self, rc, out: Path, name: str, target: float):
        if rc != 0:
            return cli_problems(rc), rc
        problems = []
        report = json.loads(out.read_bytes())
        ok = abs(report["max_value"] - target) <= self.TOL
        if not ok:
            problems.append(f"comass {report['max_value']!r}, expected {target!r}")
        if report["calibrated"] != (target == 1.0) or report["n_restarts"] != self.RESTARTS:
            problems.append(f"calibrated {report['calibrated']}, {report['n_restarts']} restarts")
        # the checked values, not the float bytes: later work may move the
        # maximum in its last digits or change how each restart ends
        return problems, [name, target, ok, report["calibrated"], report["n_restarts"]]


WORKLOADS = {"octonion": Octonion, "solver": Solver, "classify": Classify, "comass": Comass}
