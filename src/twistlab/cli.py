"""Command-line workbench: parse inputs, dispatch computations, render reports.

One computation per invocation; identical inputs produce byte-identical
output.  Exit status 0 on success, 1 on validation or verdict failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .complexes import (
    euler_characteristic,
    parse_complex,
    parse_subcomplex,
    pseudomanifold_check,
)
from .duality import duality_report, fundamental_class
from .errors import ParseError, TwistlabError
from .homology import ModulePresentation, induced_map_on_homology, is_quasi_iso
from .maps import parse_map
from .matrices import Matrix
from .rings import Z, ring_from_token
from .systems import (
    constant_system,
    is_trivializable,
    orientation_system,
    parse_system,
)
from .twisted import (
    chain_complex,
    cochain_complex,
    compare_les,
    induced_chain_map,
    relative_complex,
    triple_checks,
)


class UsageError(TwistlabError):
    pass


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _load_complex(path: str):
    return parse_complex(_read(path))


def _load_inputs(args):
    K = _load_complex(args.complex)
    ring = ring_from_token(args.ring) if getattr(args, "ring", None) else None
    system = None
    if getattr(args, "system", None):
        system = parse_system(_read(args.system), K)
        if ring is not None and system.ring != ring:
            raise UsageError(
                f"--ring {ring.token} conflicts with system ring {system.ring.token}"
            )
    if system is None:
        system = constant_system(K, 1, ring if ring is not None else Z)
    pair = None
    if getattr(args, "sub", None):
        pair = parse_subcomplex(_read(args.sub), K)
    return K, system, pair


def _fmt_matrix(m: Matrix) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m.rows) + "]"


def _emit_groups(out, kind: str, groups, fmt: str):
    sym = "H^" if kind == "cohomology" else "H_"
    if fmt == "tsv":
        for k, pres in groups:
            inv = ",".join(str(d) for d in pres.invariants)
            out.append(
                f"{'Hco' if kind == 'cohomology' else 'H'}\t{k}\t{pres.ring.token}\t{pres.rank}\t{inv}"
            )
    else:
        for k, pres in groups:
            out.append(f"{sym}{k} = {pres.group_symbol()}")


def parse_groups_tsv(text: str):
    """Parse tab-separated group rows back into presentation data.

    Returns a list of (kind, degree, ring, rank, invariants) tuples; used by
    the round-trip tests and by downstream tooling.  A group row with the
    wrong number of fields, a non-integer field, or data that is no
    presentation raises ParseError with its line number.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("\t")
        if parts[0] not in ("H", "Hco"):
            continue
        if len(parts) != 5:
            raise ParseError(f"group row has {len(parts)} fields, not 5", lineno)
        try:
            row = (parts[0], int(parts[1]), ring_from_token(parts[2]), int(parts[3]),
                   tuple(int(x) for x in parts[4].split(",") if x))
            presentation_from_row(row)
        except ValueError:
            raise ParseError(f"non-integer field in group row {line!r}", lineno) from None
        except TwistlabError as exc:
            raise ParseError(str(exc), lineno) from None
        rows.append(row)
    return rows


def presentation_from_row(row) -> ModulePresentation:
    _, _, ring, rank, inv = row
    return ModulePresentation(ring, rank, inv)


# -- subcommands --------------------------------------------------------


def _cmd_validate(args, out):
    text = _read(args.complex)
    try:
        K = parse_complex(text)
    except TwistlabError as exc:
        out.append(f"INVALID: {exc}")
        return 1
    mr = pseudomanifold_check(K)
    out.append(f"complex {K.name}: counts {K.counts()}")
    out.append(f"euler characteristic: {euler_characteristic(K)}")
    out.append(
        "closed pseudomanifold: "
        + ("yes" if mr.closed_pseudomanifold else "no")
        + f" (pure={_yn(mr.pure)}, two-cofaces={_yn(mr.two_cofaces)},"
        + f" dual-connected={_yn(mr.dual_connected)})"
    )
    out.append("VALIDATION OK")
    return 0


def _yn(b) -> str:
    return "yes" if b else "no"


def _cmd_groups(args, out, kind: str):
    K, G, pair = _load_inputs(args)
    if pair is not None:
        C = relative_complex(pair, G, "chain" if kind == "homology" else "cochain")
        where = f"{K.name} relative to {args.sub}"
    else:
        C = chain_complex(K, G) if kind == "homology" else cochain_complex(K, G)
        where = K.name
    if args.format == "human":
        out.append(f"{kind} of {where} with coefficients {G.name} over {G.ring.token}")
    degrees = [args.degree] if args.degree is not None else range(K.dimension + 1)
    groups = [(k, C.group(k)) for k in degrees]
    _emit_groups(out, kind, groups, args.format)
    return 0


def _cmd_les(args, out):
    K, G, pair = _load_inputs(args)
    if pair is None:
        raise UsageError("les requires --sub <subcomplex file>")
    rep = compare_les(pair, G, args.variant)
    out.append(
        f"long exact sequence comparison for ({K.name}, sub) "
        f"variant {args.variant} with {G.name}"
    )
    for node, check in zip(rep.simplicial.nodes, rep.simplicial_exactness.nodes):
        out.append(
            f"node {node.label} = {node.presentation.group_symbol()} : exact "
            + ("OK" if check.exact else "FAIL")
        )
    for sq in rep.squares:
        out.append(f"square {sq.label} : " + ("OK" if sq.ok else "FAIL"))
    for tc in rep.triples:
        out.append(f"cellular boundary degree {tc.degree} : " + ("OK" if tc.ok else "FAIL"))
    out.append("SIMPLICIAL EXACTNESS " + _ok(rep.simplicial_exactness.all_exact))
    out.append("CELLULAR EXACTNESS " + _ok(rep.cellular_exact))
    out.append("SQUARES " + _ok(rep.all_squares_commute))
    out.append("LES " + _ok(rep.ok))
    return 0 if rep.ok else 1


def _ok(b) -> str:
    return "OK" if b else "FAIL"


def _cmd_cellular_compare(args, out):
    K, G, _ = _load_inputs(args)
    out.append(f"cellular boundary cross-check for {K.name} with {G.name}")
    checks = triple_checks(chain_complex(K, G))
    for tc in checks:
        out.append(f"degree {tc.degree}: " + _ok(tc.ok))
    all_ok = all(tc.ok for tc in checks)
    out.append("CELLULAR COMPARISON " + _ok(all_ok))
    return 0 if all_ok else 1


def _cmd_orientation(args, out):
    K = _load_complex(args.complex)
    w = orientation_system(K)
    flag, gauge = is_trivializable(w)
    out.append(f"orientation character of {K.name} (dimension {K.dimension})")
    for e in K.simplices(1):
        out.append(f"edge {e}: {w.transport(e).entry(0, 0):+d}")
    out.append("trivializable: " + _yn(flag))
    if flag:
        for v in K.simplices(0):
            out.append(f"gauge {v}: {gauge.at(v).entry(0, 0):+d}")
    out.append("ORIENTATION OK")
    return 0


def _cmd_fundamental_class(args, out):
    K = _load_complex(args.complex)
    w = orientation_system(K)
    mu = fundamental_class(K, w)
    out.append(f"fundamental class of {K.name} twisted by {w.name}")
    for nm in K.simplices(K.dimension):
        out.append(f"{nm}: {mu.coefficients[nm]:+d}")
    out.append("CYCLE OK")
    return 0


def _cmd_duality(args, out):
    K, G, _ = _load_inputs(args)
    rep = duality_report(K, G)
    n = K.dimension
    if args.format == "tsv":
        for d in rep.degrees:
            co, ho = d.cohomology, d.homology
            out.append(
                "DUAL\t%d\t%s\t%d\t%s\t%d\t%s\t%s"
                % (
                    d.degree,
                    co.ring.token,
                    co.rank,
                    ",".join(str(x) for x in co.invariants),
                    ho.rank,
                    ",".join(str(x) for x in ho.invariants),
                    _ok(d.groups_match),
                )
            )
        out.append("VERDICT\tcap\t" + _ok(rep.cap_quasi_iso))
        out.append("VERDICT\tduality\t" + _ok(rep.ok))
        return 0 if rep.ok else 1
    out.append(f"duality report for {K.name} with {G.name} over {G.ring.token}")
    out.append(
        f"orientation character: "
        + ("trivializable" if rep.orientation_trivializable else "nontrivial")
    )
    for d in rep.degrees:
        out.append(
            f"degree {d.degree}: H^{d.degree} = {d.cohomology.group_symbol()}"
            f"  |  H_{n - d.degree} = {d.homology.group_symbol()}  : "
            + ("match OK" if d.groups_match else "match FAIL")
        )
    out.append("cap chain map quasi-isomorphism: " + _ok(rep.cap_quasi_iso))
    if rep.orientable_reading_agrees is not None:
        out.append("untwisted reading agrees: " + _yn(rep.orientable_reading_agrees))
    out.append("DUALITY " + _ok(rep.ok))
    return 0 if rep.ok else 1


def _cmd_map(args, out):
    text = _read(args.mapfile)
    header = None
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts and parts[0] == "map":
            header = parts
            break
    if header is None or len(header) != 6:
        raise UsageError("map file needs a 'map <name> from <K> to <L>' header")
    base = Path(args.mapfile).parent
    dom = _load_complex(str(base / f"{header[3]}.cx"))
    cod = _load_complex(str(base / f"{header[5]}.cx"))
    f = parse_map(text, dom, cod)
    if args.system:
        G = parse_system(_read(args.system), cod)
    else:
        G = constant_system(cod, 1, ring_from_token(args.ring) if args.ring else Z)
    chains, cochains = induced_chain_map(f, G)
    out.append(f"induced maps of {f.name}: {dom.name} -> {cod.name} with {G.name}")
    degrees = (
        [args.degree]
        if args.degree is not None
        else range(max(dom.dimension, cod.dimension) + 1)
    )
    for k in degrees:
        hm = induced_map_on_homology(chains, k)
        out.append(f"H_{k}: {_fmt_matrix(hm)}")
    for k in degrees:
        hm = induced_map_on_homology(cochains, k)
        out.append(f"H^{k}: {_fmt_matrix(hm)}")
    out.append("chain map quasi-isomorphism: " + _ok(is_quasi_iso(chains)))
    out.append("cochain map quasi-isomorphism: " + _ok(is_quasi_iso(cochains)))
    return 0


# -- driver -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twistlab",
        description="simplicial (co)homology with local coefficients on finite "
        "Delta-complexes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, system=True, ring=True, fmt=True):
        if system:
            sp.add_argument("--system", help="coefficient system file")
        if ring:
            sp.add_argument("--ring", help="Z, Q, or F<p> (default Z)")
        if fmt:
            sp.add_argument(
                "--format", choices=("human", "tsv"), default="human",
                help="output format",
            )

    sp = sub.add_parser("validate", help="validate a complex file")
    sp.add_argument("complex")

    for kind in ("homology", "cohomology"):
        sp = sub.add_parser(kind, help=f"twisted {kind} groups")
        sp.add_argument("complex")
        sp.add_argument("--sub", help="subcomplex file (relative groups)")
        sp.add_argument("--degree", type=int, help="single degree to report")
        add_common(sp)

    sp = sub.add_parser("les", help="long exact sequence comparison for a pair")
    sp.add_argument("complex")
    sp.add_argument("--sub", required=True, help="subcomplex file")
    sp.add_argument(
        "--variant", choices=("homology", "cohomology"), default="homology"
    )
    add_common(sp, fmt=False)

    sp = sub.add_parser(
        "cellular-compare", help="skeleton-triple boundary vs direct boundary"
    )
    sp.add_argument("complex")
    add_common(sp, fmt=False)

    sp = sub.add_parser("orientation", help="orientation character and witness")
    sp.add_argument("complex")

    sp = sub.add_parser("fundamental-class", help="unit-coefficient top cycle")
    sp.add_argument("complex")

    sp = sub.add_parser("duality", help="cap-product duality verdict")
    sp.add_argument("complex")
    add_common(sp)

    sp = sub.add_parser("map", help="induced maps of a simplicial map")
    sp.add_argument("mapfile")
    sp.add_argument("--degree", type=int)
    add_common(sp, fmt=False)
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit status, rendered report).

    One parser serves every call in a process: it is built on the first call
    (not at import) and reused, since building it costs far more than parsing
    with it.  Parsing leaves no state in it.  `build_parser` still returns a
    fresh parser, so a caller that changes one does not change this one.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), ""
    out: list[str] = []
    handlers = {
        "validate": lambda: _cmd_validate(args, out),
        "homology": lambda: _cmd_groups(args, out, "homology"),
        "cohomology": lambda: _cmd_groups(args, out, "cohomology"),
        "les": lambda: _cmd_les(args, out),
        "cellular-compare": lambda: _cmd_cellular_compare(args, out),
        "orientation": lambda: _cmd_orientation(args, out),
        "fundamental-class": lambda: _cmd_fundamental_class(args, out),
        "duality": lambda: _cmd_duality(args, out),
        "map": lambda: _cmd_map(args, out),
    }
    try:
        status = handlers[args.command]()
    except UsageError as exc:
        out.append(f"usage error: {exc}")
        status = 2
    except TwistlabError as exc:
        out.append(f"error: {exc}")
        status = 1
    return status, "\n".join(out) + "\n"


def main() -> None:
    status, text = run_cli(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(status)
