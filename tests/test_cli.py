"""CLI golden runs, exit codes, exports, and determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import OrderedDict, namedtuple
from decimal import Decimal
from pathlib import Path

import pytest

import arithcx
import arithcx.cli
import arithcx.projmat
import arithcx.qlat
import arithcx.scx
from arithcx.autoeng import automorphisms_fixing
from arithcx.cli import main
from arithcx.projmat import cayley_ball, lsv_generators, symmetrize
from arithcx.scx import Complex, color_chambers
from oracles import ball_json_dict


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def by_name(report):
    return {c["name"]: c for c in report["checks"]}


# ----------------------------------------------------------------------
# lsv


def test_lsv_verify_radius2_all_pass(capsys):
    code, rep = run_json(["lsv", "verify", "--radius", "2"], capsys)
    assert code == 0
    assert rep["schema"] == "arithcx-report/1"
    assert rep["command"] == "lsv-verify"
    checks = by_name(rep)
    assert set(checks) == {
        "generator-count",
        "determinants-nonzero",
        "symmetrized-distinct",
        "plane-orbit-sizes",
        "link-heawood",
        "interior-purity",
        "interior-thickness",
        "panel-flip-fraction",
    }
    assert all(c["status"] == "pass" for c in checks.values())
    assert rep["data"]["sphere_sizes"] == [1, 14, 98]
    assert rep["data"]["triangle_count"] == 231
    assert rep["data"]["skipped_checks"] == []


def test_lsv_verify_small_radii_skip_interior_checks(capsys):
    code, rep = run_json(["lsv", "verify", "--radius", "1"], capsys)
    assert code == 0
    checks = by_name(rep)
    assert "link-heawood" in checks
    assert "interior-thickness" not in checks
    assert set(rep["data"]["skipped_checks"]) == {
        "interior-purity",
        "interior-thickness",
        "panel-flip-fraction",
    }

    code, rep = run_json(["lsv", "verify", "--radius", "0"], capsys)
    assert code == 0
    assert "link-heawood" not in by_name(rep)
    assert "link-heawood" in rep["data"]["skipped_checks"]


def test_lsv_ball_radius0_single_vertex(capsys):
    code, rep = run_json(["lsv", "ball", "--radius", "0"], capsys)
    assert code == 0
    ball = rep["data"]["ball"]
    assert len(ball["vertices"]) == 1
    assert ball["edges"] == []
    assert ball["sphere_sizes"] == [1]


def test_lsv_ball_builds_no_complex(monkeypatch, capsys):
    # the report counts triangles from the steps: no complex is built
    def refuse(*args, **kwargs):
        raise AssertionError("lsv ball built a complex")

    monkeypatch.setattr(arithcx.scx, "clique_complex", refuse)
    monkeypatch.setattr(arithcx.scx.Complex, "__init__", refuse)
    monkeypatch.setattr(arithcx.projmat.CayleyBall, "to_complex", refuse)
    code, rep = run_json(["lsv", "ball", "--radius", "2"], capsys)
    assert code == 0
    assert rep["data"]["triangle_count"] == 231


def test_ball_complexes_need_no_clique_search(monkeypatch, capsys):
    # lsv verify translates the triangles at the identity, and rigidity
    # feeds the engine from the ball's rows with no complex at all
    def refuse(*args, **kwargs):
        raise AssertionError("a command searched for cliques or built a complex")

    monkeypatch.setattr(arithcx.scx, "clique_complex", refuse)
    code, rep = run_json(["lsv", "verify", "-r", "2"], capsys)
    assert code == 0 and rep["data"]["triangle_count"] == 231
    monkeypatch.setattr(Complex, "__init__", refuse)
    monkeypatch.setattr(Complex, "_set", refuse)
    monkeypatch.setattr(arithcx.projmat.CayleyBall, "to_complex", refuse)
    monkeypatch.setattr(arithcx.scx, "color_chambers", refuse)
    for colors in ("1", "2"):
        code, rep = run_json(["rigidity", "--colors", colors, "-r", "2"], capsys)
        assert code == 0 and rep["data"]["chamber_count"] == 231
    # at radius 0 the one vertex is the chamber; bytes pinned at 6cb746a
    code, out = run(["rigidity", "-r", "0", "--colors", "2"], capsys)
    assert code == 0 and json.loads(out)["data"]["chamber_count"] == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "ef473c2333bb431fb35a966462d77055a2d5033e0fa147911de86d02d4e09ead"


def test_lsv_verify_budget_exceeded_exit2(capsys):
    code, rep = run_json(
        ["lsv", "verify", "--radius", "9", "--budget", "1000"], capsys
    )
    assert code == 2
    assert rep["error"]["type"] == "BudgetExceededError"
    # shells 0..3 hold 673 vertices: the diagnostic says how far it got
    assert rep["error"]["message"] == (
        "ball exceeds vertex budget 1000 while growing shell 4 of radius 9: "
        "1000 vertices built, 327 of them in shell 4"
    )
    assert "checks" not in rep


def test_lsv_ball_radius_five_within_ceiling(capsys):
    t0 = time.monotonic()
    code, rep = run_json(["lsv", "ball", "--radius", "5"], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0
    ball = rep["data"]["ball"]
    assert ball["vertex_count"] == 17921
    assert ball["sphere_sizes"] == [1, 14, 98, 560, 2912, 14336]
    assert len(ball["edges"]) == 64519
    assert rep["data"]["triangle_count"] == 46599
    assert ball["collision"] == {"vertex": 9, "word_a": [-2], "word_b": [1, 4]}
    assert elapsed < 60.0, f"lsv ball -r 5 took {elapsed:.1f}s >= 60s"


def test_lsv_verify_radius_four_within_ceiling(capsys):
    t0 = time.monotonic()
    code, out = run(["lsv", "verify", "--radius", "4"], capsys)
    elapsed = time.monotonic() - t0
    rep = json.loads(out)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["data"]["vertex_count"] == 3585
    assert rep["data"]["edge_count"] == 12551
    assert rep["data"]["triangle_count"] == 8967
    assert rep["data"]["panel_flips"] == {
        "edges_eligible": 2247,
        "edges_skipped": 0,
        "choices_satisfied": 6741,
    }
    # sha256 of the report computed at 51c0f2c, before the incidence index
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "454a763dad830e14bc01b40ca7b776c51de3bee3bb414578edd0fd8704d8529a"
    assert elapsed < 60.0, f"lsv verify -r 4 took {elapsed:.1f}s >= 60s"


def test_lsv_verify_radius_five_within_ceiling(capsys):
    # 8.5-9.7 s on a shared 2-CPU host, with the flips carried along
    # the step map; 60 s leaves room for a host twice as slow
    t0 = time.monotonic()
    code, out = run(["lsv", "verify", "--radius", "5"], capsys)
    elapsed = time.monotonic() - t0
    rep = json.loads(out)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["data"]["vertex_count"] == 17921
    assert rep["data"]["edge_count"] == 64519
    assert rep["data"]["triangle_count"] == 46599
    assert rep["data"]["panel_flips"] == {
        "edges_eligible": 12551,
        "edges_skipped": 0,
        "choices_satisfied": 37653,
    }
    # sha256 of the report computed at f3138c1, where every flip was searched
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "fddc21d96e8a99ca49481c8a723656d3553d155075c9899037c25bf2c5070cc6"
    assert elapsed < 60.0, f"lsv verify -r 5 took {elapsed:.1f}s >= 60s"


# ----------------------------------------------------------------------
# tree


def test_tree_experiment_r2_s1_golden(capsys):
    code, rep = run_json(["tree", "experiment", "--r", "2", "--s", "1"], capsys)
    assert code == 0
    checks = by_name(rep)
    assert checks["count-r2-s1"]["value"] == "4096"
    assert checks["free-group-counts"]["status"] == "pass"
    assert checks["quotient-color-group-order"]["value"] == 4
    assert checks["flip-involution"]["status"] == "pass"
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["data"]["counts"][0]["enumerated"] == 4096
    assert "skipped_checks" not in rep["data"]


def test_tree_experiment_r4_checks_the_count_by_chain(capsys):
    code, rep = run_json(["tree", "experiment", "--r", "4", "--s", "1"], capsys)
    assert code == 0
    checks = by_name(rep)
    # r = 4 is cross-checked by the orbit-stabilizer chain, not skipped
    assert checks["count-r4-s1-consistent"]["status"] == "pass"
    assert checks["count-r3-s1-consistent"]["status"] == "pass"
    assert "skipped_checks" not in rep["data"]
    r4 = rep["data"]["counts"][-1]
    assert r4["count"] == r4["chain_order"] == str(4**186)
    assert r4["enumerated"] is None and r4["consistent"] is True
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_tree_experiment_r5_checks_the_count_by_chain(capsys):
    code, rep = run_json(["tree", "experiment", "--r", "5", "--s", "1"], capsys)
    assert code == 0
    checks = by_name(rep)
    # r = 5 is cross-checked by the orbit-stabilizer chain, not skipped
    assert checks["count-r5-s1-consistent"]["status"] == "pass"
    assert "skipped_checks" not in rep["data"]
    r5 = rep["data"]["counts"][-1]
    assert r5["count"] == r5["chain_order"] == str(4**936)
    assert r5["enumerated"] is None and r5["consistent"] is True
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_tree_experiment_writes_counts_past_the_digit_limit(capsys):
    # 4^23436 has 14,110 digits, more than str() writes by default
    code, rep = run_json(["tree", "experiment", "--r", "7", "--s", "1"], capsys)
    assert code == 0
    r7 = rep["data"]["counts"][-1]
    assert (r7["r"], r7["count"]) == (7, str(Decimal(4**23436)))
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_tree_experiment_reports_a_class_collision(monkeypatch, capsys):
    # a2 forced into a1's class: the ball and its coloring are unchanged,
    # so every check but the freeness count still passes
    gens = arithcx.qlat._generator_classes()
    forced = (gens[0], gens[0], *gens[2:])
    monkeypatch.setattr(arithcx.qlat, "_generator_classes", lambda: forced)
    code, rep = run_json(["tree", "experiment", "--r", "3", "--s", "1"], capsys)
    assert code == 1
    failed = [c["name"] for c in rep["checks"] if c["status"] == "fail"]
    assert failed == ["free-group-counts"]
    counts = arithcx.qlat.free_group_check(3)
    assert all(counts[l] < n for l, n in {1: 6, 2: 30, 3: 150}.items())


def test_tree_quotient_golden(capsys):
    code, rep = run_json(["tree", "quotient"], capsys)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    edges = rep["data"]["edges"]
    assert len(edges) == 12
    assert {e["color"] for e in edges} == {"A", "B", "C"}


def test_tree_flip_r3_s1_witness(capsys):
    code, rep = run_json(["tree", "flip", "--r", "3", "--s", "1"], capsys)
    assert code == 0
    checks = by_name(rep)
    assert checks["flip-color-preserving"]["value"] is True
    assert checks["flip-fixes-inner-ball"]["status"] == "pass"
    pairs = rep["data"]["witness_flip"]["mapping"]
    # serialized witness is a genuine permutation of the ball's indices
    assert sorted(k for k, _ in pairs) == sorted(v for _, v in pairs)
    assert rep["data"]["flip_vertex"]["distance"] == 1


def test_tree_flip_moves_an_outward_subtree_only(capsys):
    code, rep = run_json(["tree", "flip", "--r", "2", "--s", "1"], capsys)
    assert code == 0
    moved = rep["data"]["flip_vertex"]["moved_vertices"]
    assert 0 < moved < rep["data"]["ball"]["vertex_count"]


# ----------------------------------------------------------------------
# rigidity contrast


def test_rigidity_two_colors_trivial_group(capsys):
    code, rep = run_json(
        ["rigidity", "--colors", "2", "--seed", "0", "--radius", "2"], capsys
    )
    assert code == 0
    checks = by_name(rep)
    assert checks["color-group-order"]["value"] == 1
    assert rep["data"]["group_order"] == "1"
    assert rep["data"]["coloring"]["classes"] == {"0": 123, "1": 108}
    growth = [int(c["count"]) for c in rep["data"]["tree_growth"]]
    assert growth[0] == 4096
    assert growth[0] < growth[1] < growth[2]


def test_rigidity_one_color_nontrivial_group(capsys):
    code, rep = run_json(["rigidity", "--colors", "1", "--radius", "2"], capsys)
    assert code == 0
    checks = by_name(rep)
    assert checks["color-group-nontrivial"]["status"] == "pass"
    assert int(rep["data"]["group_order"]) >= 2
    assert rep["data"]["coloring"] == "constant"


def test_rigidity_one_color_radius_three_within_ceiling(capsys):
    t0 = time.monotonic()
    code, rep = run_json(["rigidity", "--colors", "1", "--radius", "3"], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0
    # golden from a full run of the engine that refined by from-scratch
    # 1-WL rounds (the refinement kept as oracles.naive_refine)
    assert rep["data"]["group_order"] == "44040192"
    assert rep["data"]["vertex_count"] == 673
    assert elapsed < 60.0, f"rigidity --colors 1 -r 3 took {elapsed:.1f}s >= 60s"


def test_vacuous_coloring_single_chamber_equals_stabilizer():
    # one triangle: any chamber coloring is constant, so the colored
    # count must equal the plain stabilizer order
    tri = Complex([0, 1, 2], [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
    plain = automorphisms_fixing(tri, ()).order
    colored = color_chambers(tri, {(0, 1, 2): 1})
    assert plain == 6
    assert automorphisms_fixing(colored, ()).order == plain


# ----------------------------------------------------------------------
# usage errors, exports, determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "experiment", "--r", "2", "--s", "2"],
        ["tree", "flip", "--r", "1", "--s", "-1"],
        ["lsv", "verify", "--budget", "0"],
        ["rigidity", "--colors", "0"],
        ["lsv", "verify", "--format", "dot"],
        ["rigidity", "--format", "dot"],
        ["lsv", "verify", "--radius", "-1"],
        ["tree", "experiment", "--r", "9", "--budget", "10000000"],
    ],
)
def test_usage_errors_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_internal_error_exit3_with_json_diagnostic(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(arithcx.cli, "_lsv_verify", broken)
    code, rep = run_json(["lsv", "verify", "--radius", "1"], capsys)
    assert code == 3
    assert rep["command"] == "lsv-verify"
    assert rep["error"] == {"type": "RuntimeError", "message": "engine fault"}
    assert "checks" not in rep


def test_unwritable_out_dir_exit3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, rep = run_json(["tree", "quotient", "--out", str(blocker)], capsys)
    assert code == 3
    assert rep["error"]["type"] == "FileExistsError"


@pytest.mark.parametrize(
    "argv, head",
    [
        (["lsv", "ball", "--radius", "1", "--format", "dot"], "graph cayley_ball"),
        (["tree", "quotient", "--format", "dot"], "graph complex"),
        (["tree", "flip", "--r", "2", "--s", "1", "--format", "dot"], "graph tree"),
    ],
)
def test_dot_stdout(argv, head, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    assert out.startswith(head)


def test_out_dir_writes_report_and_dot(tmp_path, capsys):
    sub = tmp_path / "a" / "b"
    code, out = run(
        ["tree", "quotient", "--out", str(sub), "--format", "dot"], capsys
    )
    assert code == 0
    written = (sub / "tree-quotient.json").read_text()
    rep = json.loads(written)
    assert rep["command"] == "tree-quotient"
    assert (sub / "tree-quotient.dot").read_text() == out

    code, out = run(["tree", "quotient", "--out", str(sub)], capsys)
    assert code == 0
    # json on stdout and in the file, no dot written this time
    assert (sub / "tree-quotient.json").read_text() == out


def test_json_rendered_only_when_written(monkeypatch, tmp_path, capsys):
    emitted = []
    emit = arithcx.cli._emit
    monkeypatch.setattr(
        arithcx.cli, "_emit", lambda r, write: emitted.append(r) or emit(r, write)
    )
    code, out = run(["tree", "quotient", "--format", "dot"], capsys)
    assert code == 0 and out.startswith("graph complex")
    assert emitted == []
    code, _ = run(["tree", "quotient", "--format", "dot", "--out", str(tmp_path)], capsys)
    assert code == 0 and len(emitted) == 1
    # with --out, stdout gets a copy of the file, not a second rendering
    code, out = run(["tree", "quotient", "--out", str(tmp_path)], capsys)
    assert code == 0 and len(emitted) == 2
    assert (tmp_path / "tree-quotient.json").read_text() == out
    code, _ = run(["tree", "quotient"], capsys)
    assert code == 0 and len(emitted) == 3


def test_lsv_ball_dot_builds_json_data_only_for_out(monkeypatch, tmp_path, capsys):
    code, plain = run(["lsv", "ball", "-r", "2", "--out", str(tmp_path)], capsys)
    assert code == 0

    def refuse(ball):
        raise AssertionError("JSON data built for a DOT-only run")

    ball_data = arithcx.cli._ball_data
    monkeypatch.setattr(arithcx.cli, "_ball_data", refuse)
    code, out = run(["lsv", "ball", "-r", "2", "--format", "dot"], capsys)
    assert code == 0 and out.startswith("graph cayley_ball")
    monkeypatch.setattr(arithcx.cli, "_ball_data", ball_data)
    argv = ["lsv", "ball", "-r", "2", "--format", "dot", "--out", str(tmp_path)]
    code, _ = run(argv, capsys)
    assert code == 0
    # the file is the plain run's report but for the format it echoes
    expected = json.loads(plain)
    expected["config"]["format"] = "dot"
    assert json.loads((tmp_path / "lsv-ball.json").read_text()) == expected


class _Sink:
    """A stdout that keeps what it is given and raises OSError on the
    write numbered `fail_at` (from 0), or never when it is None."""

    def __init__(self, fail_at=None):
        self.pieces = []
        self.fail_at = fail_at

    def write(self, s):
        if len(self.pieces) == self.fail_at:
            raise OSError(28, "No space left on device")
        self.pieces.append(s)
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv, fail_at",
    [
        (["lsv", "ball", "--radius", "1"], 0),
        (["lsv", "ball", "--radius", "1"], 5),
        # the budget diagnostic meets the same failure
        (["lsv", "verify", "--radius", "9", "--budget", "1000"], 0),
    ],
)
def test_failed_stdout_write_exit3(monkeypatch, capsys, argv, fail_at):
    sink = _Sink(fail_at)
    monkeypatch.setattr(sys, "stdout", sink)
    code = main(argv)
    assert code == 3
    # what was written before the failure stays; nothing follows it
    assert len(sink.pieces) == fail_at
    rep = json.loads(capsys.readouterr().err)
    assert rep["command"] == f"{argv[0]}-{argv[1]}"
    assert rep["error"] == {
        "type": "OSError",
        "message": "[Errno 28] No space left on device",
    }


def test_report_json_cannot_encode_exit3(monkeypatch, capsys):
    def unencodable(args):
        return {"checks": [], "data": {"a": [1, {2}]}}, None

    monkeypatch.setattr(arithcx.cli, "_lsv_verify", unencodable)
    assert main(["lsv", "verify", "--radius", "1"]) == 3
    out, err = capsys.readouterr()
    # stdout holds the pieces before the set; the diagnostic follows the
    # traceback on stderr
    assert out.endswith('"a": [\n      1')
    assert err.rstrip().endswith(
        '"message": "Object of type set is not JSON serializable",\n'
        '    "type": "TypeError"\n  },\n  "schema": "arithcx-report/1"\n}'
    )
    assert "Traceback" in err


def test_failed_stdout_pipe_exit3():
    # a reader that closes the pipe at once: the write fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(arithcx.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "arithcx.cli", "lsv", "ball", "-r", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 3
    assert json.loads(err)["error"]["type"] == "BrokenPipeError"


def test_report_is_written_in_small_pieces(monkeypatch):
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["lsv", "ball", "--radius", "3"]) == 0
    assert len(sink.pieces) > 1
    assert max(len(p) for p in sink.pieces) < 1024
    assert json.loads("".join(sink.pieces))["data"]["ball"]["vertex_count"] == 673


def test_dot_is_written_in_small_pieces(monkeypatch, tmp_path):
    # 512 lines at a time, each made as it is needed; with --out, stdout
    # copies the DOT file
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["lsv", "ball", "--radius", "3", "--format", "dot"]
    assert main(argv) == 0
    ball = cayley_ball(symmetrize(lsv_generators()), 3)
    lines = 2 + len(ball) + sum(1 for _ in ball.edges())
    assert len(sink.pieces) == -(-lines // 512) > 1
    assert max(len(p) for p in sink.pieces) < 32 * 1024
    text = "".join(sink.pieces)
    assert text == "".join(ball.to_dot())
    assert text.startswith("graph cayley_ball {\n") and text.endswith(";\n}\n")
    sink.pieces = []
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert "".join(sink.pieces) == (tmp_path / "lsv-ball.dot").read_text() == text


def test_lsv_ball_memory_within_report_multiple(monkeypatch):
    # streamed, the report's text is never held whole, and the vertex
    # and edge lists are filled from the ball as they are written: the
    # traced peak is the ball, not its JSON data or copies of the text
    class Discard:
        size = 0

        def write(self, s):
            self.size += len(s)

        def flush(self):
            pass

    sink = Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["lsv", "ball", "--radius", "4"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sink.size, f"peak {peak} B for a {sink.size} B report"


def render(obj):
    """The report text _emit writes for obj, joined."""
    pieces = []
    arithcx.cli._emit(obj, pieces.append)
    return "".join(pieces)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_ball_data_matches_materialised_record(radius):
    # the vertex and edge lists are written from one template each,
    # straight from the ball; r = 0 has no edges
    ball = cayley_ball(symmetrize(lsv_generators()), radius)
    expected = json.dumps(ball_json_dict(ball), indent=2, sort_keys=True) + "\n"
    data = arithcx.cli._ball_data(ball)
    # compared line by line, so that a failure names the first line
    # that differs without a diff of the whole text
    assert render(data).split("\n") == expected.split("\n")
    assert render(data) == expected  # its lists are read afresh


def test_rows_template_follows_its_indent():
    rows, text = arithcx.cli._Rows, arithcx.cli._text
    shape = {"b": ["%s", {"c": "%s"}], "a": "%s"}
    items = [{"a": -1, "b": [2, {"c": "x"}]}, {"a": 3, "b": [4, {"c": None}]}]
    values = [(-1, 2, '"x"'), (3, 4, "null")]

    def nest(rows_of):
        return [{"k": rows_of(values)}, {"k": rows_of([]), "j": [rows_of(values)]}]

    doc = nest(lambda vs: rows(shape, lambda: iter(vs)))
    materialised = nest(lambda vs: items if vs else [])
    for nl in ("\n", "\n    "):
        assert text(doc, nl) == text(materialised, nl)
    assert render(doc) == json.dumps(materialised, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {"a": {1, 2}},  # a set value
        {(1, 2): "x"},  # a tuple key
        {1: "x", "a": "y"},  # int and str keys cannot be sorted together
        {"a": [1, b"bytes"]},
        [object()],
    ],
)
def test_render_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        render(obj)
    assert str(got.value) == str(expected.value)


def test_render_encodes_subclasses_as_json_does():
    class Label(str):
        pass

    class Small(int):
        pass

    pair = namedtuple("pair", "u v")
    obj = OrderedDict(
        b=[pair(1, Label("x")), Small(3)],
        a={Label("k"): pair(0, 1), "j": {Small(2): [], 1: True}},
    )
    assert render(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lsv", "ball", "--radius", "1"],
        ["tree", "quotient"],
        ["tree", "flip", "--r", "2", "--s", "0"],
        ["rigidity", "--colors", "2", "--seed", "7", "--radius", "1"],
    ],
)
def test_reports_are_deterministic(argv, capsys):
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_benchmark_reports_match_their_pinned_digests(capsys):
    # perfbench/digests.json pins the stdout sha256 of every benchmark
    # command; an unchanged digest means an unchanged report
    pinned = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
    )
    assert len(pinned) >= 68
    assert changed_reports(pinned, capsys) == []


def changed_reports(pinned, capsys):
    """The argvs, keys of `pinned`, whose run fails or whose stdout has
    another sha256 than the pinned one."""
    changed = []
    for key, digest in pinned.items():
        code, out = run(key.split(), capsys)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(key)
    return changed


# stdout sha256 of runs outside the benchmark's, pinned at commit
# 36f4cd2 (`lsv ball -r 0/1/6` at 51004e1); together they take about
# 6 s in-process
SCALE_DIGESTS = {
    "lsv ball -r 0": (
        "3ff699433adcb0f85cc6510ca920c1715a268b70a7932535a7b393f5fe96abd5"
    ),
    "lsv ball -r 1": (
        "d203160a98090d3883d08810a3e9f6a84f73036df22ae3767b5e3b2825802ac4"
    ),
    "lsv ball -r 6": (
        "b2f8d4fc23cba1ebbfef5e5c4055aab048ecb10e798ed95f487c3bc22e6de6a2"
    ),
    "lsv verify -r 4": (
        "454a763dad830e14bc01b40ca7b776c51de3bee3bb414578edd0fd8704d8529a"
    ),
    "lsv verify -r 5": (
        "fddc21d96e8a99ca49481c8a723656d3553d155075c9899037c25bf2c5070cc6"
    ),
    "lsv ball -r 4": (
        "e91642c8b1c2deb6e1feb259a712ab5084c37bd885eae00e375f49edc1ef1a0f"
    ),
    "lsv ball -r 4 --format dot": (
        "b70f38ffb9d076275e7a06c592b7f6bd4a3e0ef1374708ccf57828c53f7ddffc"
    ),
    "rigidity --colors 1 -r 3": (
        "f424239999d8fc3829a577bc615cb7bf24ec3310e2646531c91cb0a55ce8bcca"
    ),
    "rigidity --colors 2 -r 4 --seed 0": (
        "d37da35557e0b782275449be3815f58cb6aed133a6786ce4360aa56323aed9e8"
    ),
    "rigidity --colors 2 -r 4 --seed 1": (
        "dd490bfca338cd408d82301926e55874653a5de4bf65dfccbb102e54cc172a5d"
    ),
    "rigidity --colors 2 -r 5 --seed 0": (
        "769333a812afcaeb1913841f7eb0298466c31415f67e28554a34aae2de045419"
    ),
    "tree experiment --r 4": (
        "e5975d657084c0a96d000af73012f5231636bc4d21bb362e73d65da28191fa02"
    ),
    "tree experiment --r 5 --s 1": (
        "75aaa6c42b2d3897ff3b370cf5ca42b4a8eeec0c830f44ccae12d23c26ace394"
    ),
}


def test_scale_reports_match_their_pinned_digests(capsys):
    assert changed_reports(SCALE_DIGESTS, capsys) == []


# stdout sha256 of runs too slow for tier-1, pinned at commit 6cb746a;
# about 25 s together on a shared 2-CPU host.  Opt in with `-m slow`
SLOW_SCALE_DIGESTS = {
    "rigidity --colors 2 -r 6 --seed 0": (
        "b00fb5a308e4d113d33ea3890660e03769a22fd5c221ca18c8167857320fc5f3"
    ),
    "rigidity --colors 1 -r 4": (
        "d0c6f0df6e9d5857d9fd4c32ed413195a93c693040d6ceade4a5e889b0f4aa34"
    ),
    "lsv verify -r 6": (
        "f75358e9db597482fd287de87dd91ce3cb722a74c3ddcdc5dba258f845341b9c"
    ),
    "tree experiment --r 6 --s 1": (
        "0e5c50b7712d54858c6ac29f5d68cd96faf8fcd2db797fd50d302d4b3787baee"
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("argv", list(SLOW_SCALE_DIGESTS))
def test_slow_scale_report_matches_its_pinned_digest(argv, capsys):
    assert changed_reports({argv: SLOW_SCALE_DIGESTS[argv]}, capsys) == []


def test_traced_benchmark_commands(monkeypatch, capsys):
    # perfbench/spans.py wraps public functions by name; a spanned
    # function renamed or removed breaks the traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import Tracer

    argvs = [
        ["lsv", "verify", "-r", "2"],
        ["lsv", "ball", "-r", "2"],
        ["rigidity", "--colors", "2", "-r", "2"],
        ["rigidity", "--colors", "1", "-r", "2"],
        ["tree", "experiment", "--r", "3", "--s", "1"],
    ]
    tracer = Tracer()
    with tracer.installed():
        codes = [run(argv, capsys)[0] for argv in argvs]
    assert codes == [0] * len(argvs)
    _, calls, _ = tracer.self_times()
    assert calls["autoeng.panel_flip_check"] == 1
    assert calls["scx.purity_report"] == 1
    assert tracer.counters["autoeng.flip_choices_satisfied"] == 105


def _source_env():
    """Environment whose PYTHONPATH starts at the source root of the
    imported package, so subprocesses run the code under test from any
    working directory."""
    env = dict(os.environ)
    src_root = str(Path(arithcx.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")])
    )
    return env


def test_console_script_and_module_entry():
    # The declared [project.scripts] target, run the way an installer's
    # wrapper runs it: main() with no arguments reads sys.argv, and its
    # return value is the exit code.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["arithcx"]
    module, function = target.split(":")
    wrapper = (
        f"import sys\nfrom {module} import {function}\nsys.exit({function}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "tree", "quotient"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "tree-quotient"

    proc = subprocess.run(
        [sys.executable, "-m", "arithcx.cli", "lsv", "ball", "--radius", "0"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "lsv-ball"


@pytest.mark.skipif(
    shutil.which("arithcx") is None, reason="arithcx console script not installed"
)
def test_installed_console_script():
    script = shutil.which("arithcx")
    proc = subprocess.run(
        [script, "tree", "quotient"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "tree-quotient"
