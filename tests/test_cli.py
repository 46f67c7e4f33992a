import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twistlab import cli
from twistlab.errors import ParseError, TwistlabError
from twistlab.cli import run_cli
from twistlab.homology import ModulePresentation
from twistlab.rings import ring_from_token

ROOT = Path(__file__).resolve().parent.parent

# The documented example set; every command must exit 0 and print
# byte-identical output across runs.  Each line also appears in README.md.
EXAMPLE_COMMANDS = [
    "validate fixtures/torus.cx",
    "validate fixtures/rp3.cx",
    "homology fixtures/circle1.cx --system fixtures/minus1.sys",
    "cohomology fixtures/circle1.cx --system fixtures/minus1.sys",
    "homology fixtures/torus.cx",
    "homology fixtures/rp3.cx",
    "homology fixtures/klein.cx --ring Q",
    "homology fixtures/sphere2.cx --ring F5 --format tsv",
    "homology fixtures/torus.cx --sub fixtures/torus_vertex.sub",
    "homology fixtures/rp2.cx --degree 1",
    "les fixtures/disk.cx --sub fixtures/disk_boundary.sub",
    "les fixtures/torus.cx --sub fixtures/torus_vertex.sub --variant cohomology",
    "les fixtures/rp2.cx --sub fixtures/rp2_circle.sub",
    "les fixtures/klein.cx --sub fixtures/klein_circle.sub",
    "les fixtures/klein.cx --sub fixtures/klein_circle.sub --variant cohomology",
    "les fixtures/klein.cx --sub fixtures/klein_circle.sub --ring F2",
    "les fixtures/klein.cx --sub fixtures/klein_circle.sub --ring Q --variant cohomology",
    "cellular-compare fixtures/rp2.cx",
    "cellular-compare fixtures/torus.cx --system fixtures/torus_ab.sys",
    "cellular-compare fixtures/rp3.cx",
    "cellular-compare fixtures/rp3.cx --ring F2",
    "orientation fixtures/klein.cx",
    "orientation fixtures/sphere2.cx",
    "fundamental-class fixtures/rp2.cx",
    "fundamental-class fixtures/rp3.cx",
    "duality fixtures/rp2.cx",
    "duality fixtures/torus.cx --system fixtures/torus_ab.sys",
    "duality fixtures/rp3.cx --format tsv",
    "duality fixtures/circle3.cx --system fixtures/circle3_signs.sys",
    "duality fixtures/klein.cx --ring F2",
    "duality fixtures/rp2.cx --ring F3 --format tsv",
    "map fixtures/wrap.map --system fixtures/minus1.sys",
    "map fixtures/collapse.map",
    "map fixtures/wrap.map --ring Q",
    "map fixtures/wrap.map --ring F3",
]


def run(cmd: str):
    return run_cli(cmd.split())


def test_twisted_circle_output_lines():
    status, text = run("homology fixtures/circle1.cx --system fixtures/minus1.sys")
    assert status == 0
    lines = text.splitlines()
    assert "H_0 = Z/2" in lines
    assert "H_1 = 0" in lines


def test_duality_rp2_ends_ok():
    status, text = run("duality fixtures/rp2.cx")
    assert status == 0
    assert text.splitlines()[-1] == "DUALITY OK"


def test_validate_broken_exits_one():
    status, text = run("validate fixtures/broken.cx")
    assert status == 1
    assert "face identity" in text


def test_usage_errors_exit_two():
    status, _ = run("les fixtures/disk.cx")  # missing --sub
    assert status == 2
    status, _ = run("homology fixtures/nonexistent.cx")
    assert status == 2
    status, _ = run(
        "homology fixtures/circle1.cx --system fixtures/minus1.sys --ring F5"
    )
    assert status == 2


@pytest.mark.parametrize("token", ["W", "F\u00b2", "F\u0663"], ids=["W", "superscript", "arabic_indic"])
def test_an_unsupported_ring_is_an_error(token):
    # F followed by digits other than ASCII ones names no ring, as W does not.
    status, text = run(f"homology fixtures/torus.cx --ring {token}")
    assert (status, text) == (1, f"error: unsupported coefficient ring {token!r} (use Z, Q, or F<p>)\n")


def test_all_examples_exit_zero():
    for cmd in EXAMPLE_COMMANDS:
        status, text = run(cmd)
        assert status == 0, (cmd, text)
        assert text.strip(), cmd


def test_examples_match_the_recorded_output():
    # example_outputs.json holds the exit status and stdout of every example
    # command; any change to them, byte for byte, has to be made on purpose.
    recorded = json.loads((ROOT / "tests" / "example_outputs.json").read_text(encoding="utf-8"))
    assert [r["command"] for r in recorded] == EXAMPLE_COMMANDS
    for r in recorded:
        assert run(r["command"]) == (r["status"], r["stdout"]), r["command"]


def test_malformed_documents_match_the_recorded_errors():
    # error_outputs.json holds the exit status and stdout of `validate` on every
    # document in tests/malformed, recorded before the complex was stored as face
    # tables: the error text, and which error wins when a document has several.
    recorded = json.loads((ROOT / "tests" / "error_outputs.json").read_text(encoding="utf-8"))
    documents = sorted((ROOT / "tests" / "malformed").glob("*.cx"))
    assert [r["command"] for r in recorded] == [
        f"validate tests/malformed/{p.name}" for p in documents
    ]
    for r in recorded:
        assert run(r["command"]) == (r["status"], r["stdout"]), r["command"]


def test_one_parser_serves_the_process_and_keeps_no_state(monkeypatch, capsys):
    # Replays the examples in two orders through one cached parser, with a
    # usage error (argparse exits 2 and prints nothing to stdout) and a tsv
    # job between every few commands.
    recorded = json.loads((ROOT / "tests" / "example_outputs.json").read_text(encoding="utf-8"))
    tsv = next(r for r in recorded if "--format tsv" in r["command"])
    usage_error = {"command": "homology", "status": 2, "stdout": ""}
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    for seed in (1, 2):
        order = recorded[:]
        random.Random(seed).shuffle(order)
        for i in range(len(order) - len(order) % 4, 0, -4):
            order[i:i] = [usage_error, tsv]
        for r in order:
            assert run(r["command"]) == (r["status"], r["stdout"]), r["command"]
    assert len(builds) == 1
    assert "the following arguments are required: complex" in capsys.readouterr().err
    assert cli.build_parser() is not cli._shared_parser()


def test_examples_documented_in_readme():
    readme = (ROOT / "README.md").read_text()
    for cmd in EXAMPLE_COMMANDS:
        assert f"twistlab {cmd}" in readme, cmd


def parse_groups_tsv(text: str):
    """Parse tab-separated group rows back into presentation data.

    Returns a list of (kind, degree, ring, rank, invariants) tuples.  A group
    row with the wrong number of fields, a non-integer field, or data that is
    no presentation raises ParseError with its line number.
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


def test_tsv_round_trip():
    for cmd in [
        "homology fixtures/klein.cx --format tsv",
        "homology fixtures/rp3.cx --format tsv",
        "cohomology fixtures/rp2.cx --format tsv",
        "homology fixtures/sphere2.cx --ring F5 --format tsv",
        "homology fixtures/torus.cx --ring Q --format tsv",
    ]:
        status, text = run(cmd)
        assert status == 0
        rows = parse_groups_tsv(text)
        assert rows
        rendered = []
        for row in rows:
            pres = presentation_from_row(row)
            inv = ",".join(str(d) for d in pres.invariants)
            rendered.append(
                f"{row[0]}\t{row[1]}\t{pres.ring.token}\t{pres.rank}\t{inv}"
            )
        assert rendered == [l for l in text.splitlines() if l.split("\t")[0] in ("H", "Hco")]


def test_tsv_parser_rejects_malformed_rows_with_their_line():
    good = "H\t0\tZ\t1\t\n"
    for bad in (
        "H\t0\tZ",              # too few fields
        "Hco\t1\tQ\t1\t\textra",  # too many
        "H\tone\tZ\t1\t",       # non-integer degree
        "H\t0\tZ\t1\t2,x",      # non-integer invariant
        "H\t0\tZ\t-1\t",        # negative rank
    ):
        with pytest.raises(ParseError) as info:
            parse_groups_tsv(good + bad)
        assert info.value.line == 2, bad


def test_degree_filter():
    status, text = run("homology fixtures/rp2.cx --degree 1")
    assert status == 0
    assert "H_1 = Z/2" in text.splitlines()
    assert all(not l.startswith("H_0") for l in text.splitlines())


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab", "homology", "fixtures/torus.cx"],
        cwd=ROOT,
        capture_output=True,
    )
    assert proc.returncode == 0
    assert b"H_1 = Z^2" in proc.stdout


def test_map_outputs_match_the_benchmark_digests(tmp_path):
    # The fixture maps are too small for their induced-map matrices to depend
    # on pivot order; the benchmark's covering maps T_2n -> T_n are not.
    import jobs

    _, job_list = jobs.build("les", 0, str(tmp_path))
    digests = jobs.load_digests("les", 0)
    maps = [j for j in job_list if j.command == "map"]
    assert len(maps) == 5 and all(j.id in digests for j in maps)
    for job in maps:
        status, text = run_cli(job.argv)
        assert jobs.check_job(job, status, text, digests) == [], job.id
