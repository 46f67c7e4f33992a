"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines; any
failure fails the corresponding test at its stated exact tolerance (all
checks here are exact integer/field equalities, nothing is approximate).
"""

import ast
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twistlab as tl

from conftest import (
    ALL_COMPLEXES,
    MANIFOLDS,
    ORIENTABLE,
    load_complex,
    load_subcomplex,
    load_system,
    random_flat_system,
    random_gauge,
    sign_systems_of,
)
from test_cli import EXAMPLE_COMMANDS

ROOT = Path(__file__).resolve().parent.parent

RINGS = [tl.Z, tl.Q, tl.prime_field(5)]

CLASSICAL = {
    "circle1": [(1, ()), (1, ())],
    "circle3": [(1, ()), (1, ())],
    "sphere2": [(1, ()), (0, ()), (1, ())],
    "torus": [(1, ()), (2, ()), (1, ())],
    "klein": [(1, ()), (1, (2,)), (0, ())],
    "rp2": [(1, ()), (0, (2,)), (0, ())],
    "rp3": [(1, ()), (0, (2,)), (0, ()), (1, ())],
}


def _passline(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_untwisted_reduction():
    for name, expected in CLASSICAL.items():
        K = load_complex(name)
        C = tl.chain_complex(K, tl.constant_system(K, 1, tl.Z))
        got = [
            (C.homology(k).rank, C.homology(k).invariants)
            for k in range(K.dimension + 1)
        ]
        assert got == expected, name
    _passline(1, "untwisted reduction")


def test_criterion_2_twisted_circle_oracle():
    K = load_complex("circle1")
    G = load_system("minus1.sys", K)
    C = tl.chain_complex(K, G)
    D = tl.cochain_complex(K, G)
    assert (C.homology(0).rank, C.homology(0).invariants) == (0, (2,))
    assert C.homology(1).is_zero
    assert D.homology(0).is_zero
    assert (D.homology(1).rank, D.homology(1).invariants) == (0, (2,))
    _passline(2, "twisted circle oracle")


def test_criterion_3_flatness_implies_squared_zero():
    rng = random.Random(3)
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        for i in range(100):
            ring = RINGS[i % 3]
            rank = 1 + (i % 3)
            G = random_flat_system(name, rank, ring, rng)
            C = tl.chain_complex(K, G)
            D = tl.cochain_complex(K, G)
            for k in range(K.dimension + 1):
                assert C.diff(k - 1).mul(C.diff(k)).is_zero(), (name, k)
                assert D.diff(k).mul(D.diff(k - 1)).is_zero(), (name, k)
    _passline(3, "flatness gives squared-zero")


def test_criterion_4_euler_invariant():
    rng = random.Random(4)
    for name in ALL_COMPLEXES:
        K = load_complex(name)
        chi = tl.euler_characteristic(K)
        for rank in (1, 2, 3):
            G = random_flat_system(name, rank, tl.Q, rng)
            C = tl.chain_complex(K, G)
            total = sum(
                (-1) ** k * C.homology(k).rank for k in range(K.dimension + 1)
            )
            assert total == rank * chi, (name, rank)
    _passline(4, "euler invariant")


PAIR_GRID = [
    ("disk", "disk_boundary.sub"),
    ("torus", "torus_vertex.sub"),
    ("klein", "klein_circle.sub"),
    ("rp2", "rp2_circle.sub"),
]


def _grid_systems(name, rng):
    K = load_complex(name)
    systems = [tl.constant_system(K, 1, tl.Z)]
    if tl.pseudomanifold_check(K).closed_pseudomanifold:
        systems.append(tl.orientation_system(K))
    else:
        # the disk is not closed; a sign-gauged constant system stands in
        systems.append(
            tl.gauge_transform(
                tl.constant_system(K, 1, tl.Z), random_gauge(K, tl.Z, 1, rng)
            )
        )
    systems.append(random_flat_system(name, 2, tl.Z, rng))
    return systems


def test_criterion_5_les_exactness():
    rng = random.Random(5)
    for cname, subname in PAIR_GRID:
        K = load_complex(cname)
        P = load_subcomplex(subname, K)
        for G in _grid_systems(cname, rng):
            for variant in ("homology", "cohomology"):
                frag = tl.assemble_les(P, G, variant)
                report = frag.exactness()
                assert report.all_exact, (cname, G.name, variant)
    _passline(5, "long exact sequences")


def test_criterion_6_cellular_comparison():
    rng = random.Random(6)
    for cname, subname in PAIR_GRID:
        K = load_complex(cname)
        P = load_subcomplex(subname, K)
        for G in _grid_systems(cname, rng):
            for variant in ("homology", "cohomology"):
                rep = tl.compare_les(P, G, variant)
                assert rep.all_squares_commute, (cname, G.name, variant)
                assert rep.all_triples_match, (cname, G.name, variant)
                assert rep.ok, (cname, G.name, variant)
    _passline(6, "cellular comparison and skeleton-triple boundary")


def test_criterion_7_duality():
    rng = random.Random(7)
    F5 = tl.prime_field(5)
    for name in MANIFOLDS:
        K = load_complex(name)
        systems = [
            tl.constant_system(K, 1, tl.Z),
            tl.constant_system(K, 2, tl.Z),
            tl.constant_system(K, 2, F5),
            tl.orientation_system(K),
        ]
        systems.extend(sign_systems_of(name))
        for i in range(25):
            ring = tl.Z if i % 2 == 0 else F5
            systems.append(random_flat_system(name, 1 + (i % 2), ring, rng))
        for G in systems:
            rep = tl.duality_report(K, G)
            assert rep.cap_quasi_iso, (name, G.name)
            assert rep.all_groups_match, (name, G.name)

    # headline instances
    rp2 = load_complex("rp2")
    rep = tl.duality_report(rp2, tl.constant_system(rp2, 1, tl.Z))
    assert {d.degree: (d.cohomology.rank, d.cohomology.invariants) for d in rep.degrees} == {
        0: (1, ()),
        1: (0, ()),
        2: (0, (2,)),
    }
    assert rep.degrees[2].homology.invariants == (2,)

    torus = load_complex("torus")
    rep2 = tl.duality_report(torus, load_system("torus_ab.sys", torus))
    assert [
        (d.cohomology.rank, d.cohomology.invariants) for d in rep2.degrees
    ] == [(0, ()), (0, (2,)), (0, (2,))]
    _passline(7, "twisted duality verdicts")


def test_criterion_8_orientability():
    for name in MANIFOLDS:
        w = tl.orientation_system(load_complex(name))
        flag, _ = tl.is_trivializable(w)
        assert flag == ORIENTABLE[name], name
    rp2 = load_complex("rp2")
    with pytest.raises(tl.ValidationError, match="no unit-coefficient cycle"):
        tl.fundamental_class(rp2, tl.constant_system(rp2, 1, tl.Z))
    _passline(8, "orientability and fundamental classes")


def test_criterion_9_homotopy_invariance_and_gauge():
    rng = random.Random(9)
    disk, point = load_complex("disk"), load_complex("point")
    C3, C1 = load_complex("circle3"), load_complex("circle1")
    collapse = tl.parse_map((ROOT / "fixtures/collapse.map").read_text(), disk, point)
    wrap = tl.parse_map((ROOT / "fixtures/wrap.map").read_text(), C3, C1)
    for ring in RINGS:
        for rank in (1, 2):
            chains, cochains = tl.induced_chain_map(
                collapse, tl.constant_system(point, rank, ring)
            )
            assert tl.is_quasi_iso(chains) and tl.is_quasi_iso(cochains)
            G = random_flat_system("circle1", rank, ring, rng)
            chains, cochains = tl.induced_chain_map(wrap, G)
            assert tl.is_quasi_iso(chains) and tl.is_quasi_iso(cochains)
    for name in MANIFOLDS:
        K = load_complex(name)
        for ring in RINGS:
            G = random_flat_system(name, 2, ring, rng)
            Gs = tl.gauge_transform(G, random_gauge(K, ring, 2, rng))
            A, B = tl.chain_complex(K, G), tl.chain_complex(K, Gs)
            for k in range(K.dimension + 1):
                assert A.homology(k).isomorphic_to(B.homology(k)), (name, k)
    _passline(9, "homotopy invariance instances and gauge invariance")


def _run_example_batch() -> bytes:
    driver = (
        "import sys\n"
        "from twistlab.cli import run_cli\n"
        "commands = sys.stdin.read().splitlines()\n"
        "for cmd in commands:\n"
        "    status, text = run_cli(cmd.split())\n"
        "    sys.stdout.write(f'== {cmd} -> {status}\\n')\n"
        "    sys.stdout.write(text)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", driver],
        input="\n".join(EXAMPLE_COMMANDS).encode(),
        cwd=ROOT,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_determinism():
    first = _run_example_batch()
    second = _run_example_batch()
    assert first == second
    assert b"-> 0\n" in first and b"-> 1" not in first and b"-> 2" not in first
    _passline(10, "byte-identical runs")


# The public surface: src/ holds what the engine, the benchmark, the scripts
# or README's documented API use, and README's library section runs as shown.


def test_src_defines_no_test_only_names():
    # A public module-level function or class counts as used when code in
    # src/ names it outside its own definition, when a file of bench/ or
    # scripts/ names it (the benchmark wraps some by name), or when README
    # does.  A helper only the tests call belongs in the tests.
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "twistlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = path.name
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    texts = [p.read_text(encoding="utf-8")
             for d in ("bench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    used.update(re.findall(r"\w+", "\n".join(texts)))
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, unused


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_snippet_prints_what_its_comments_say(monkeypatch, capsys):
    section = _readme_section("Library entry points")
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 3
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_main_operations_are_exported():
    sentence = re.search(r"The main operations\s+are (.*?)\.\s",
                         _readme_section("Library entry points"), re.DOTALL).group(1)
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) == 29
    assert [n for n in names if not hasattr(tl, n)] == []
