"""Workload job lists and the output checks behind ``fail_frac``.

A workload is a fixed list of CLI jobs.  Its shape (commands, sizes, rings,
ranks) is written out below; the seed only reaches the inputs through
``inputs`` (simplex order and gauges).  Every job is checked twice: by
independent oracles on its output text, and by a byte-for-byte digest of the
output recorded from the seed commit (see ``digests.json``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import inputs
from inputs import GenComplex, klein_bottle, kuhn_torus

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"
DIGEST_CHARS = 20


@dataclass
class Job:
    """One CLI invocation plus what its output check needs to know."""

    id: str
    argv: list[str]
    command: str
    K: GenComplex
    ring: str = "Z"
    rank: int = 1
    twisted: bool = False
    relative: bool = False
    fmt: str = "human"


class Workspace:
    """Writes a workload's input files into ``root`` (a path relative to the
    checkout) and remembers them so set-up can check each one with the library.

    Every file's seeded choices come from its own ``Random(f"{seed}/{name}")``,
    so adding a job never changes the inputs of another.
    """

    def __init__(self, root: str, seed: int):
        self.root = Path(root)
        self.seed = seed
        self.root.mkdir(parents=True, exist_ok=True)
        self.complexes: dict[str, GenComplex] = {}
        self.systems: dict[str, tuple[str, str]] = {}
        self.subs: dict[str, str] = {}
        self.maps: dict[str, tuple[str, str, str]] = {}

    def _rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}/{name}")

    def _write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def complex(self, K: GenComplex) -> str:
        if K.name not in self.complexes:
            K.shuffle(self._rng(K.name))
            self.complexes[K.name] = K
            self._write(f"{K.name}.cx", K.text())
        return str(self.root / f"{K.name}.cx")

    def system(self, K: GenComplex, rank: int, ring: str) -> str:
        name = f"{K.name}_r{rank}{ring}"
        if name not in self.systems:
            self.complex(K)
            K = self.complexes[K.name]
            S = inputs.twisted_system(K, rank, ring, self._rng(name), name)
            self.systems[name] = (K.name, self._write(f"{name}.sys", S.text()))
        return self.systems[name][1]

    def meridian(self, K: GenComplex) -> str:
        name = f"{K.name}_mer"
        if name not in self.subs:
            self.complex(K)
            self.subs[name] = K.name
            self._write(f"{name}.sub", inputs.meridian_text(K))
        return str(self.root / f"{name}.sub")

    def cover(self, n: int, dim: int = 2) -> str:
        dom, cod = kuhn_torus(2 * n, dim), kuhn_torus(n, dim)
        self.complex(dom)
        self.complex(cod)
        name = f"cover_{dom.name}_{cod.name}"
        if name not in self.maps:
            path = self._write(f"{name}.map", inputs.covering_map_text(dom, cod))
            self.maps[name] = (dom.name, cod.name, path)
        return self.maps[name][2]

    def verify(self, tl) -> None:
        """Parse every input with the library; raises on any invalid file.

        ``parse_complex`` runs the face-identity validation, ``parse_system``
        the invertibility and flatness checks, ``parse_map`` face
        compatibility.  Closed surfaces must also be closed pseudomanifolds.
        """
        parsed = {}
        for name in self.complexes:
            K = tl.parse_complex((self.root / f"{name}.cx").read_text())
            if not tl.pseudomanifold_check(K).closed_pseudomanifold:
                raise tl.ValidationError(f"{name} is not a closed pseudomanifold")
            parsed[name] = K
        for base, path in self.systems.values():
            tl.parse_system(Path(path).read_text(), parsed[base])
        for sub, base in self.subs.items():
            tl.parse_subcomplex((self.root / f"{sub}.sub").read_text(), parsed[base])
        for dom, cod, path in self.maps.values():
            tl.parse_map(Path(path).read_text(), parsed[dom], parsed[cod])


# -- job lists ---------------------------------------------------------------


def _groups_job(ws: Workspace, kind: str, K: GenComplex, ring: str = "Z",
                rank: int = 0, sub: bool = False, fmt: str = "human") -> Job:
    """rank 0: untwisted (constant rank 1, ring by --ring); else a twisted
    system of that rank written over ``ring``."""
    argv = [kind, ws.complex(K)]
    if rank:
        argv += ["--system", ws.system(K, rank, ring)]
    elif ring != "Z":
        argv += ["--ring", ring]
    if sub:
        argv += ["--sub", ws.meridian(K)]
    if fmt != "human":
        argv += ["--format", fmt]
    jid = " ".join([kind, K.name, ring, f"r{rank}"] + (["rel"] if sub else []) + [fmt])
    return Job(jid, argv, kind, K, ring, max(rank, 1), bool(rank), sub, fmt)


def groups_jobs(ws: Workspace) -> list[Job]:
    T4, T5 = kuhn_torus(4, 2), kuhn_torus(5, 2)
    KB4, T32 = klein_bottle(4, 4), kuhn_torus(2, 3)
    g = lambda *a, **k: _groups_job(ws, *a, **k)  # noqa: E731
    # A few large reductions, which dominate the time ...
    jobs = [
        g("homology", T5),
        g("cohomology", T5),
        g("homology", T5, rank=2),
        g("homology", T4),
        g("cohomology", T4, fmt="tsv"),
        g("homology", T4, "Q"),
        g("homology", T4, "F3"),
        g("homology", T4, rank=2),
        g("homology", T4, sub=True),
        g("homology", KB4),
        g("cohomology", KB4),
        g("homology", KB4, "F2"),
        g("cohomology", KB4, "F3"),
        g("homology", KB4, rank=1),
        g("cohomology", KB4, sub=True),
        g("homology", T32),
        g("homology", T32, "F2"),
    ]
    # ... and many small ones, across rings, systems and pairs.
    for K in (kuhn_torus(2, 2), kuhn_torus(3, 2), klein_bottle(3, 3), kuhn_torus(1, 3)):
        jobs += [
            g("homology", K),
            g("cohomology", K),
            g("homology", K, "Q"),
            g("homology", K, "F2"),
            g("cohomology", K, "F3"),
            g("homology", K, rank=1),
            g("cohomology", K, rank=2),
            g("homology", K, "Q", rank=1),
            g("homology", K, "F3", rank=2),
            g("homology", K, sub=True),
            g("cohomology", K, rank=1, sub=True),
        ]
    return jobs


def les_jobs(ws: Workspace) -> list[Job]:
    jobs = []

    def les(K, variant="homology", rank=0):
        argv = ["les", ws.complex(K), "--sub", ws.meridian(K)]
        if rank:
            argv += ["--system", ws.system(K, rank, "Z")]
        if variant != "homology":
            argv += ["--variant", variant]
        jobs.append(Job(f"les {K.name} r{rank} {variant}", argv, "les", K,
                        rank=max(rank, 1), twisted=bool(rank)))

    def cellular(K, rank=0):
        argv = ["cellular-compare", ws.complex(K)]
        if rank:
            argv += ["--system", ws.system(K, rank, "Z")]
        jobs.append(Job(f"cellular-compare {K.name} r{rank}", argv, "cellular-compare",
                        K, rank=max(rank, 1), twisted=bool(rank)))

    def cover(n, rank=0):
        argv = ["map", ws.cover(n)]
        if rank:
            argv += ["--system", ws.system(kuhn_torus(n, 2), rank, "Z")]
        jobs.append(Job(f"map T{2 * n}->T{n} r{rank}", argv, "map", kuhn_torus(n, 2),
                        rank=max(rank, 1), twisted=bool(rank)))

    for K in (kuhn_torus(1, 2), kuhn_torus(2, 2), kuhn_torus(1, 3)):
        for variant in ("homology", "cohomology"):
            for rank in (0, 1, 2):
                les(K, variant, rank)
    for K in (kuhn_torus(3, 2), klein_bottle(3, 3)):
        les(K)
        les(K, "cohomology")
        les(K, rank=1)
    for K in (kuhn_torus(1, 2), kuhn_torus(2, 2), kuhn_torus(3, 2), klein_bottle(3, 3),
              kuhn_torus(1, 3)):
        for rank in (0, 1, 2):
            if rank < 2 or K.counts()[0] < 5:
                cellular(K, rank)
    for n, rank in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1)):
        cover(n, rank)
    return jobs


def duality_jobs(ws: Workspace) -> list[Job]:
    jobs = []

    def dual(K, rank=0, fmt="human"):
        argv = ["duality", ws.complex(K)]
        if rank:
            argv += ["--system", ws.system(K, rank, "Z")]
        if fmt != "human":
            argv += ["--format", fmt]
        jobs.append(Job(f"duality {K.name} r{rank} {fmt}", argv, "duality", K,
                        rank=max(rank, 1), twisted=bool(rank), fmt=fmt))

    def fclass(K):
        jobs.append(Job(f"fundamental-class {K.name}", ["fundamental-class", ws.complex(K)],
                        "fundamental-class", K))

    for K in (kuhn_torus(1, 2), kuhn_torus(2, 2), klein_bottle(3, 3), kuhn_torus(1, 3)):
        for rank in (0, 1, 2):
            dual(K, rank)
            dual(K, rank, "tsv")
    for K in (kuhn_torus(3, 2), klein_bottle(4, 3)):
        dual(K)
        dual(K, fmt="tsv")
        dual(K, rank=1)
    dual(kuhn_torus(4, 2))
    for K in (kuhn_torus(2, 2), kuhn_torus(4, 2), kuhn_torus(6, 2), kuhn_torus(8, 2),
              klein_bottle(3, 3), klein_bottle(5, 4), klein_bottle(8, 8),
              kuhn_torus(1, 3), kuhn_torus(2, 3)):
        fclass(K)
    return jobs


def combinatorics_jobs(ws: Workspace) -> list[Job]:
    jobs = []
    for K in [kuhn_torus(n, 2) for n in (8, 12, 16, 20, 24, 28, 32, 40, 48)] + [
        klein_bottle(n, m) for n, m in ((8, 8), (12, 12), (16, 12), (24, 20), (32, 24))
    ] + [kuhn_torus(n, 3) for n in (2, 3, 4, 5, 6)]:
        jobs.append(Job(f"validate {K.name}", ["validate", ws.complex(K)], "validate", K))
    for K in [kuhn_torus(n, 2) for n in (4, 6, 8, 10, 12)] + [
        klein_bottle(n, m) for n, m in ((4, 4), (6, 6), (8, 8), (12, 12), (14, 10))
    ] + [kuhn_torus(n, 3) for n in (1, 2, 3)]:
        jobs.append(Job(f"orientation {K.name}", ["orientation", ws.complex(K)],
                        "orientation", K))
    return jobs


JOB_LISTS = {
    "groups": groups_jobs,
    "les": les_jobs,
    "duality": duality_jobs,
    "combinatorics": combinatorics_jobs,
}
WORKLOADS = tuple(JOB_LISTS)


def build(workload: str, seed: int, root: str) -> tuple[Workspace, list[Job]]:
    ws = Workspace(root, seed)
    jobs = JOB_LISTS[workload](ws)
    ids = [j.id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate job ids in workload {workload}")
    return ws, jobs


# -- oracle checks -------------------------------------------------------------

_SYMBOL_PART = re.compile(r"^(Z|Q|F_\d+)(?:\^(\d+))?$|^Z/(\d+)$")


def parse_symbol(sym: str) -> tuple[int, list[int]]:
    """'Z^2 + Z/2' -> (2, [2]); '0' -> (0, [])."""
    if sym == "0":
        return 0, []
    rank, torsion = 0, []
    for part in sym.split(" + "):
        m = _SYMBOL_PART.match(part)
        if not m:
            raise ValueError(f"bad group symbol {sym!r}")
        if m.group(3):
            torsion.append(int(m.group(3)))
        else:
            rank += int(m.group(2) or 1)
    return rank, torsion


def _euler_problem(job: Job, ranks: dict[int, int]) -> list[str]:
    chi = sum((-1) ** k * r for k, r in ranks.items())
    # A meridian is a circle (Euler characteristic 0), so relative groups
    # share the absolute value.
    want = job.rank * job.K.euler()
    if chi != want:
        return [f"Euler characteristic from ranks is {chi}, expected {want}"]
    return []


def _check_groups(job: Job, lines: list[str]) -> list[str]:
    coh = job.command == "cohomology"
    dim = job.K.dimension
    groups = {}
    if job.fmt == "tsv":
        tag = "Hco" if coh else "H"
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 5 or parts[0] != tag or parts[2] != job.ring:
                return [f"bad tsv row {line!r}"]
            inv = [f"Z/{d}" for d in parts[4].split(",") if d]
            free = inputs.free_symbol(job.ring, int(parts[3]))
            groups[int(parts[1])] = " + ".join(([free] if free != "0" else []) + inv) or "0"
    else:
        head = f"{job.command} of {job.K.name}"
        if not lines or not lines[0].startswith(head) or not lines[0].endswith(f"over {job.ring}"):
            return [f"bad header {lines[:1]!r}"]
        sym = "H^" if coh else "H_"
        for line in lines[1:]:
            m = re.match(rf"^{re.escape(sym)}(\d+) = (.+)$", line)
            if not m:
                return [f"unexpected line {line!r}"]
            groups[int(m.group(1))] = m.group(2)
    if sorted(groups) != list(range(dim + 1)):
        return [f"degrees {sorted(groups)} instead of 0..{dim}"]
    try:
        parsed = {k: parse_symbol(s) for k, s in groups.items()}
    except ValueError as exc:
        return [str(exc)]
    problems = _euler_problem(job, {k: r for k, (r, _) in parsed.items()})
    if not job.twisted and not job.relative:
        want = inputs.closed_form_groups(job.K.kind, dim, job.ring, coh)
        got = [groups[k] for k in range(dim + 1)]
        if got != want:
            problems.append(f"groups {got} differ from the closed form {want}")
    return problems


def _check_les(job: Job, lines: list[str]) -> list[str]:
    problems = []
    ranks = {}
    for line in lines[1:]:
        if not line.endswith("OK"):
            problems.append(f"verdict not OK: {line!r}")
        m = re.match(r"^node H[_^](\d+)\(K\) = (.+) : exact", line)
        if m:
            ranks[int(m.group(1))] = parse_symbol(m.group(2))[0]
    if not lines or lines[-1] != "LES OK":
        problems.append("missing 'LES OK'")
    if sorted(ranks) != list(range(job.K.dimension + 1)):
        problems.append("missing absolute nodes")
    else:
        problems += _euler_problem(job, ranks)
    return problems


def _check_cellular(job: Job, lines: list[str]) -> list[str]:
    want = [f"degree {n}: OK" for n in range(1, job.K.dimension + 1)]
    if lines[1:-1] != want or lines[-1] != "CELLULAR COMPARISON OK":
        return ["cellular comparison lines differ from all-OK"]
    return []


def _det(M: list[list[int]]) -> int:
    if not M:
        return 1
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(len(M))
    )


def _check_map(job: Job, lines: list[str]) -> list[str]:
    dim = job.K.dimension
    mats = {}
    for line in lines[1:]:
        m = re.match(r"^H([_^])(\d+): (\[.*\])$", line)
        if m:
            mats[(m.group(1), int(m.group(2)))] = json.loads(m.group(3))
    if len(mats) != 2 * (dim + 1):
        return ["missing induced-map lines"]
    verdicts = [line.rpartition(": ")[2] for line in lines[-2:]]
    if not (lines[-2].startswith("chain map quasi-isomorphism: ")
            and lines[-1].startswith("cochain map quasi-isomorphism: ")):
        return ["missing quasi-isomorphism verdicts"]
    if job.twisted:
        return []
    if verdicts != ["FAIL", "FAIL"]:
        return ["a cover of degree > 1 cannot be a quasi-isomorphism"]
    # T_{2n} -> T_n doubles each loop: H_1 is 2I, degree 2^dim on top.
    problems = []
    for side in "_^":
        for k, want in ((0, 1), (1, 2 ** dim), (dim, 2 ** dim)):
            d = _det(mats[(side, k)])
            if abs(d) != want:
                problems.append(f"H{side}{k} has determinant {d}, expected +-{want}")
    return problems


def _check_duality(job: Job, lines: list[str]) -> list[str]:
    n = job.K.dimension
    problems = []
    ranks = {}
    if job.fmt == "tsv":
        rows = [line.split("\t") for line in lines]
        dual = [r for r in rows if r[0] == "DUAL"]
        if [int(r[1]) for r in dual] != list(range(n + 1)):
            problems.append("missing DUAL rows")
        for r in dual:
            if r[-1] != "OK" or (r[3], r[4]) != (r[5], r[6]):
                problems.append(f"duality row does not match: {r}")
            ranks[n - int(r[1])] = int(r[5])
        if lines[-2:] != ["VERDICT\tcap\tOK", "VERDICT\tduality\tOK"]:
            problems.append("verdicts not OK")
    else:
        if lines[1] != "orientation character: " + (
            "trivializable" if job.K.orientable else "nontrivial"
        ):
            problems.append(f"wrong orientation verdict {lines[1]!r}")
        for line in lines[2:]:
            m = re.match(r"^degree (\d+): H\^\d+ = (.+)  \|  H_(\d+) = (.+)  : match OK$", line)
            if m:
                if m.group(2) != m.group(4):
                    problems.append(f"groups differ in {line!r}")
                ranks[int(m.group(3))] = parse_symbol(m.group(4))[0]
        if "cap chain map quasi-isomorphism: OK" not in lines or lines[-1] != "DUALITY OK":
            problems.append("duality verdict not OK")
    if sorted(ranks) != list(range(n + 1)):
        problems.append("missing degrees")
    else:
        problems += _euler_problem(job, ranks)
    return problems


def _check_fundamental_class(job: Job, lines: list[str]) -> list[str]:
    top = {nm for nm, _ in job.K.simplices[-1]}
    coeffs = {}
    for line in lines[1:-1]:
        nm, _, val = line.partition(": ")
        if val not in ("+1", "-1"):
            return [f"coefficient is not a unit: {line!r}"]
        coeffs[nm] = int(val)
    if set(coeffs) != top or len(lines) != len(top) + 2:
        return ["coefficients do not cover the top simplices once"]
    if lines[-1] != "CYCLE OK":
        return ["missing 'CYCLE OK'"]
    return []


def _check_validate(job: Job, lines: list[str]) -> list[str]:
    K = job.K
    want = [
        f"complex {K.name}: counts {K.counts()}",
        f"euler characteristic: {K.euler()}",
        "closed pseudomanifold: yes (pure=yes, two-cofaces=yes, dual-connected=yes)",
        "VALIDATION OK",
    ]
    return [] if lines == want else ["validation report differs from the generator's facts"]


def _check_orientation(job: Job, lines: list[str]) -> list[str]:
    K = job.K
    w, gauge = {}, {}
    for line in lines:
        m = re.match(r"^(edge|gauge) (\S+): ([+-]1)$", line)
        if m:
            (w if m.group(1) == "edge" else gauge)[m.group(2)] = int(m.group(3))
    if set(w) != {e for e, _ in K.simplices[1]}:
        return ["orientation character does not cover every edge once"]
    faces = K.face_map
    for t, _ in K.simplices[2]:
        f = faces[t]
        if w[f[0]] * w[f[2]] != w[f[1]]:
            return [f"orientation character is not flat on {t}"]
    trivial = "trivializable: yes" in lines
    if trivial != K.orientable or lines[-1] != "ORIENTATION OK":
        return ["trivializability verdict is wrong"]
    if trivial:
        if set(gauge) != {v for v, _ in K.simplices[0]}:
            return ["gauge witness does not cover every vertex"]
        for e in w:
            tail, head = K.edge_ends(e)
            if gauge[head] != w[e] * gauge[tail]:
                return [f"gauge witness fails on edge {e}"]
    return []


CHECKS = {
    "homology": _check_groups,
    "cohomology": _check_groups,
    "les": _check_les,
    "cellular-compare": _check_cellular,
    "map": _check_map,
    "duality": _check_duality,
    "fundamental-class": _check_fundamental_class,
    "validate": _check_validate,
    "orientation": _check_orientation,
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def load_digests(workload: str, seed: int) -> dict[str, str]:
    """Recorded digests that apply to this seed: seed-invariant ones plus the
    ones recorded for exactly this seed."""
    if not DIGEST_FILE.is_file():
        raise SystemExit(f"bench: {DIGEST_FILE.name} is missing; the byte-identity check needs it")
    table = json.loads(DIGEST_FILE.read_text()).get(workload, {})
    out = dict(table.get("any", {}))
    out.update(table.get("seeds", {}).get(str(seed), {}))
    return out


def check_job(job: Job, status: int, text: str, digests: dict[str, str]) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    if status != 0:
        return [f"exit status {status}"]
    lines = text.splitlines()
    try:
        problems = CHECKS[job.command](job, lines)
    except (IndexError, KeyError, ValueError) as exc:
        problems = [f"unparseable output ({type(exc).__name__}: {exc})"]
    want = digests.get(job.id)
    if want is not None and digest(text) != want:
        problems.append("output differs from the recorded digest")
    return problems
