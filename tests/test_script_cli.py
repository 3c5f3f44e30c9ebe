import argparse
import json
from pathlib import Path

import pytest

from simploc import cli
from simploc.cli import (
    EXIT_OK,
    EXIT_UNDERDETERMINED,
    EXIT_VALIDATION,
    RECORD_SCHEMA,
    check_script,
    main,
    preset_verdict,
    run_script,
)
from simploc.coeff import FgAbGroup
from simploc.dsl import classify, example_library
from simploc.engine import FiberTable, NoVerdict
from simploc.group_rep import GroupDatum
from simploc.script import (
    _COMMANDS,
    ClassifyCmd,
    ComputeCmd,
    ScriptError,
    parse,
    print_script,
    print_tree,
)

TRIV = GroupDatum(0)


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_script():
    script = parse("group torus 1\nlet x = P(1)\ncompute x table=unit degrees=-2..2\n")
    assert script.group == GroupDatum(1)
    assert list(script.trees) == ["x"]
    cmd = script.commands[0]
    assert cmd == ComputeCmd("x", "unit", -2, 2)


def test_parse_node_classification_script():
    script = parse("group trivial\nlet y = node\nclassify y\n")
    assert script.commands == (ClassifyCmd("y"),)
    assert classify(script.trees["y"]).tag == "C"


def test_parse_group_with_finite_orders():
    script = parse("group torus 1 mu 3 4\nlet x = point\n")
    assert script.group == GroupDatum(1, (3, 4))


def test_parse_errors_report_positions():
    with pytest.raises(ScriptError) as info:
        parse("let =\n")
    assert "line 1" in str(info.value)
    with pytest.raises(ScriptError):
        parse("group trivial\nlet x = P(1)\nlet x = P(2)\n")
    with pytest.raises(ScriptError):
        parse("group trivial\ncompute z table=unit degrees=0..1\n")
    with pytest.raises(ScriptError):
        parse("group trivial\ngroup trivial\n")
    with pytest.raises(ScriptError):
        parse("let x = point\n")  # group must come first


def test_parse_explicit_blowup_with_maps():
    text = (
        "group trivial\n"
        "let e = disjoint(point, point)\n"
        "let x = blowup(unknown=X, split=none, Y=P(1), Z=point, E=e, "
        "maps=[0: ((1, 1, 1), (1, 1, 1))])\n"
    )
    script = parse(text)
    tree = script.trees["x"]
    assert tree.map_at(0) == ((1, 1, 1), (1, 1, 1))
    assert tree == example_library("node")


def test_parse_schubert_constructors():
    script = parse(
        "group trivial\n"
        "let f = schubert(4, 2, j=(0, 0, 1, 1, 2))\n"
        "let a = affine(2, mu=(2, 0))\n"
    )
    assert script.trees["f"].oracle_rank == 5
    assert script.trees["a"].oracle_rank == 3


def test_normalize_j_flag_changes_tree():
    text = "group trivial\nlet f = schubert(3, 2, j=(0, 0, 2, 2))\n"
    plain = parse(text).trees["f"]
    tightened = parse(text, normalize_j_sequences=True).trees["f"]
    assert plain != tightened
    assert plain.oracle_rank == tightened.oracle_rank


def test_round_trip_scripts():
    text = (
        "group torus 2\n"
        'table kh = "kh.tbl"\n'
        "let x = P(1)\n"
        "let y = flagbundle(x, rank=3, d=(1, 1))\n"
        "compute y table=unit degrees=-1..3\n"
        "classify y\n"
        "verdict y preset=parshin_Fq\n"
        "report x kh=kh hcminus=kh degrees=0..2\n"
    )
    script = parse(text)
    assert parse(print_script(script)) == script


def test_shipped_scripts_round_trip_and_run():
    base = Path(__file__).resolve().parent.parent / "scripts"
    for name in ("node.slc", "cone_of_p1.slc"):
        text = (base / name).read_text()
        script = parse(text)
        assert parse(print_script(script)) == script
        output, code = run_script(script, base)
        assert code == EXIT_OK, (name, output)


def test_print_tree_handles_all_nodes():
    script = parse(
        "group trivial\n"
        "let d = descent(P(1), rank=1, pres=(2, 2), d=(1), oracle=2)\n"
        "let h = henselian(7)\n"
        "let u = disjoint(point, d)\n"
    )
    for tree in script.trees.values():
        round_tripped = parse(f"group trivial\nlet x = {print_tree(tree)}\n")
        assert round_tripped.trees["x"] == tree


# ---------------------------------------------------------------------------
# running


NODE_SCRIPT = (
    "group trivial\n"
    "let x = node\n"
    "classify x\n"
    "compute x table=unit degrees=-3..0\n"
)


def test_run_node_script_text():
    output, code = run_script(parse(NODE_SCRIPT), Path("."))
    assert code == EXIT_OK
    assert "x: class C" in output
    assert "not in class B: nonzero value Z in degree -1" in output
    assert "degree -1: Z" in output
    assert "degree -2: 0" in output and "degree -3: 0" in output
    assert "degree 0: Z^2" in output


def test_classify_refutation_in_records():
    output, code = run_script(parse(NODE_SCRIPT), Path("."), fmt="records")
    assert code == EXIT_OK
    records = [json.loads(line) for line in output.splitlines()]
    row = next(r for r in records if r["command"] == "classify")
    assert row["b_refuted"] == {
        "degree": -1,
        "free_rank": 1,
        "invariant_factors": [],
        "rational": False,
    }


def test_run_records_format():
    output, code = run_script(parse(NODE_SCRIPT), Path("."), fmt="records")
    assert code == EXIT_OK
    records = [json.loads(line) for line in output.splitlines()]
    assert all(r["schema"] == RECORD_SCHEMA for r in records)
    row = next(r for r in records if r.get("degree") == -1)
    assert row["free_rank"] == 1 and row["invariant_factors"] == []


def test_run_deterministic_byte_for_byte():
    for fmt in ("text", "records"):
        a = run_script(parse(NODE_SCRIPT), Path("."), fmt=fmt)
        b = run_script(parse(NODE_SCRIPT), Path("."), fmt=fmt)
        assert a == b


def test_run_validation_error_exit_code():
    script = parse("group trivial\nlet x = flagbundle(point, rank=1, d=(2))\nclassify x\n")
    output, code = run_script(script, Path("."))
    assert code == EXIT_VALIDATION
    assert "invalid x" in output


def test_run_underdetermined_exit_code():
    script = parse(
        "group trivial\n"
        "let e = disjoint(point, point)\n"
        "let x = blowup(unknown=X, split=none, Y=P(1), Z=point, E=e)\n"
        "compute x table=unit degrees=-1..0\n"
    )
    output, code = run_script(script, Path("."))
    assert code == EXIT_UNDERDETERMINED
    assert "underdetermined" in output


def test_run_unknown_table_exit_code():
    script = parse("group trivial\nlet x = point\ncompute x table=mystery degrees=0..0\n")
    output, code = run_script(script, Path("."))
    assert code == EXIT_VALIDATION


def test_run_user_table(tmp_path):
    (tmp_path / "kh.tbl").write_text("0 1 Q\n1 1 Q\n")
    script = parse(
        'group trivial\ntable kh = "kh.tbl"\nlet c = cone_of_P1\n'
        "compute c table=kh degrees=0..2\n"
    )
    output, code = run_script(script, tmp_path)
    assert code == EXIT_OK
    assert "degree 0: Q^3" in output
    assert "degree 1: Q^3" in output
    assert "degree 2: 0" in output


def test_run_report_command(tmp_path):
    (tmp_path / "kh.tbl").write_text("0 1 Q\n1 1 Q\n3 1 Q\n")
    (tmp_path / "hcm.tbl").write_text("0 1 Q\n1 1 Q\n3 1 Q\n")
    script = parse(
        'group trivial\ntable kh = "kh.tbl"\ntable hcm = "hcm.tbl"\n'
        "let c = cone_of_P1\n"
        "report c kh=kh hcminus=hcm degrees=-1..3\n"
    )
    output, code = run_script(script, tmp_path)
    assert code == EXIT_OK
    assert "-1 | 0 | 0 | 0" in output
    assert "0 | Q^3 | Q^3 | Q" in output
    assert "1 | Q^4 | Q^3 | Q" in output
    assert "2 | 0 | 0 | 0" in output
    assert "3 | Q^4 | Q^3 | Q" in output


def test_every_command_statement_has_a_runner():
    assert set(cli._RUNNERS) == {cls for cls, _ in _COMMANDS.values()}


def test_check_command():
    script = parse("group trivial\nlet a = cusp\nlet b = node\n")
    output, code = check_script(script)
    assert code == EXIT_OK
    assert "a: class B" in output and "b: class C" in output


def test_verdict_command_text():
    script = parse("group trivial\nlet x = cusp\nverdict x preset=goodwillie_jones_Q\n")
    output, code = run_script(script, Path("."))
    assert code == EXIT_OK
    assert "IsoInDegree(0)" in output


def test_verdict_refusal_is_not_an_error():
    # absence of a verdict is a value: exit code stays 0
    script = parse("group trivial\nlet x = node\nverdict x preset=goodwillie_jones_Q\n")
    output, code = run_script(script, Path("."))
    assert code == EXIT_OK
    assert "no verdict" in output and "class B" in output


def test_report_rejects_class_c(tmp_path):
    (tmp_path / "t.tbl").write_text("0 1\n")
    script = parse(
        'group trivial\ntable t = "t.tbl"\nlet x = node\n'
        "report x kh=t hcminus=t degrees=0..2\n"
    )
    output, code = run_script(script, tmp_path)
    assert code == EXIT_VALIDATION
    assert "class B" in output


def test_cli_main_round_trip(tmp_path, capsys):
    path = tmp_path / "demo.slc"
    path.write_text(NODE_SCRIPT)
    assert main(["run", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree -1: Z" in out
    assert main(["check", str(path)]) == EXIT_OK
    bad = tmp_path / "bad.slc"
    bad.write_text("let =\n")
    assert main(["run", str(bad)]) == EXIT_VALIDATION


POINT_SCRIPT = "group trivial\nlet x = point\nclassify x\n"


def test_cli_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    path = tmp_path / "point.slc"
    path.write_text(POINT_SCRIPT)
    for _ in range(2):
        assert main(["run", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "x: class B\n"


def _argv_errors(path, capsys) -> None:
    for argv in (["run"], ["frobnicate", str(path)]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: simploc")
        assert captured.out == ""


def test_cli_options_do_not_carry_over_between_calls(tmp_path, capsys, monkeypatch):
    path = tmp_path / "point.slc"
    path.write_text(POINT_SCRIPT)
    _argv_errors(path, capsys)
    assert main(["run", str(path), "--format=records", "--normalize-j"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["command"] == "classify"
    _argv_errors(path, capsys)
    assert main(["run", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "x: class B\n"

    # the golden's j sequence is one normalization tightens
    schubert = Path(__file__).resolve().parent / "golden" / "normalize_j" / "schubert_j.slc"
    flags = []

    def spy(text, normalize_j_sequences=False):
        flags.append(normalize_j_sequences)
        return parse(text, normalize_j_sequences)

    monkeypatch.setattr(cli, "parse", spy)
    outputs = []
    for extra in ([], ["--normalize-j"], []):
        assert main(["run", str(schubert), *extra]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert flags == [False, True, False]
    assert outputs[2] == outputs[0]


def test_cli_normalize_j_flag(tmp_path, capsys):
    path = tmp_path / "schub.slc"
    path.write_text(
        "group trivial\nlet f = schubert(3, 2, j=(0, 0, 2, 2))\nclassify f\n"
    )
    assert main(["run", str(path), "--normalize-j"]) == EXIT_OK


def test_normalize_j_rebuilds_the_tower_not_the_output(capsys):
    """The golden's j sequence is one that normalization tightens: the parsed
    tower changes, every printed value and exit code stays."""
    path = Path(__file__).resolve().parent / "golden" / "normalize_j" / "schubert_j.slc"
    for fmt in ("text", "records"):
        seen = []
        for flags in ([], ["--normalize-j"]):
            code = main(["run", str(path), f"--format={fmt}", *flags])
            seen.append((capsys.readouterr().out, code))
        assert seen[0] == seen[1]
        assert seen[0][1] == EXIT_OK
    text = path.read_text()
    assert print_script(parse(text)) != print_script(parse(text, normalize_j_sequences=True))


# ---------------------------------------------------------------------------
# presets


def test_presets_on_library_classes():
    node_cls = classify(example_library("node"))
    v = preset_verdict("cyclotomic_Fp", example_library("node"), TRIV, node_cls)
    assert v.kind == "equivalence_all_degrees"
    for name in ("cusp", "cone_of_P1"):
        tree = example_library(name)
        cls = classify(tree)
        assert preset_verdict("goodwillie_jones_Q", tree, TRIV, cls).kind == "iso_in_degree"
        assert preset_verdict("ktop_C", tree, TRIV, cls).kind == "iso_in_degree"
        assert preset_verdict("parshin_Fq", tree, TRIV, cls).kind == "vanishing"


def test_presets_refuse_synthetic_fiber():
    # fiber vanishing only in degree 0, nonzero in degree -1
    fiber = FiberTable(known=((0, FgAbGroup(0)), (-1, FgAbGroup(1))), complete=False)
    tree = example_library("cusp")
    cls = classify(tree)
    for preset in ("cyclotomic_Fp", "goodwillie_jones_Q", "ktop_C", "parshin_Fq"):
        verdict = preset_verdict(preset, tree, TRIV, cls, fiber_override=fiber)
        assert isinstance(verdict, NoVerdict), preset


def test_unknown_preset():
    with pytest.raises(LookupError):
        preset_verdict("mystery", example_library("cusp"), TRIV)


def test_deeply_nested_expression_exits_one_without_traceback(tmp_path, capsys):
    expr = "point"
    for _ in range(400):
        expr = f"disjoint({expr})"
    script = tmp_path / "deep.slc"
    script.write_text(f"group trivial\nlet x = {expr}\nclassify x\n")
    assert main(["run", str(script)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "parse error: expression nested too deeply\n"
    assert "Traceback" not in err


def test_normalize_j_changes_the_parsed_tower_but_no_run_or_check_output(tmp_path, capsys):
    text = (
        "group trivial\nlet s = schubert(4, 2, j=(0, 0, 0, 2, 2))\nclassify s\n"
        "compute s table=unit degrees=0..1\ncompute s table=bott degrees=-2..2\n"
        "verdict s preset=ktop_C\nverdict s preset=parshin_Fq\n"
        "report s kh=bott hcminus=hcminus_rational degrees=-1..2\n"
    )
    assert print_script(parse(text)) != print_script(parse(text, normalize_j_sequences=True))
    # the locus rank is the descent's oracle, cell_count_finite, which
    # normalization keeps
    script = tmp_path / "schubert.slc"
    script.write_text(text)
    for command in ("run", "check"):
        for fmt in ("text", "records"):
            runs = []
            for flags in ([], ["--normalize-j"]):
                code = main([command, f"--format={fmt}", str(script), *flags])
                runs.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1] and runs[0][0] == EXIT_OK
