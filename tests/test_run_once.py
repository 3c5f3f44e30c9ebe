"""The run path does each piece of work once.

``run_script`` writes its lines and one joined copy of them, with the
closing newline inside the join; ``classify`` keeps the class of the root
it classified last, so the commands on one target list its oracle paths
once, and classifying many roots keeps one root's paths; the class-B
degree-0 rank is
folded once per tree and cached on it, and a fold that raises caches
nothing, so every call raises the same message.
"""

import sys
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from simploc import cli, dsl, engine
from simploc.cli import EXIT_OK, EXIT_VALIDATION, run_script
from simploc.engine import InconsistentDataError, UnderdeterminedError, compute_degree0
from simploc.group_rep import GroupDatum
from simploc.script import ScriptError, parse

FORMATS = ("text", "records")


def _run_with_lines(script, base_dir: Path, fmt: str):
    """``run_script``'s output and exit code, and the lines it rendered."""
    rendered = []
    real = cli._Output.render

    def render(out):
        rendered.append(out)
        return real(out)

    with mock.patch.object(cli._Output, "render", render):
        output, code = run_script(script, base_dir, fmt)
    (out,) = rendered
    return output, code, out.lines


def _assert_joined(output: str, lines: list[str]) -> None:
    assert all("\n" not in line for line in lines)
    assert output == "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("lines", [[], ["a"], ["a", "", "  b c", "{}"]])
def test_render_joins_the_lines_with_a_closing_newline_and_keeps_them(lines):
    out = cli._Output("text")
    for line in lines:
        out.text(line)
    held = out.lines
    _assert_joined(out.render(), lines)
    assert out.lines is held and out.lines == lines


def test_a_table_that_fails_mid_window_is_joined_up_to_its_error(tmp_path):
    # P(10^4300 - 1) has rank 10^4300, which has more digits than str() writes
    script = parse(f"group trivial\nlet x = P({'9' * 4300})\ncompute x table=bott degrees=-3..4\n")
    for fmt in FORMATS:
        output, code, lines = _run_with_lines(script, tmp_path, fmt)
        assert code == EXIT_VALIDATION
        assert len(lines) == 3 - (fmt == "records")
        _assert_joined(output, lines)


def test_an_empty_output_is_the_empty_string(tmp_path):
    script = parse("group trivial\nlet x = point\n")
    for fmt in FORMATS:
        assert _run_with_lines(script, tmp_path, fmt) == ("", EXIT_OK, [])


def test_a_wide_records_window_holds_its_lines_and_one_joined_copy(tmp_path):
    """10^5 records of about 210 bytes.  Past its lines, a run's peak is the
    joined output and little else: 1.0 times the output where a second joined
    copy made it 2.0 times."""
    script = parse("group trivial\nlet w = cone_of_P1\ncompute w table=bott degrees=0..99999\n")
    tracemalloc.start()
    try:
        output, code, lines = _run_with_lines(script, tmp_path, "records")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and len(lines) == 10**5
    held = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    assert peak - held <= 1.2 * len(output)


def test_a_run_lists_the_oracle_paths_once_and_folds_the_rank_once(tmp_path):
    script = parse(
        "group trivial\nlet a = affine(2, mu=(60, 0))\nclassify a\n"
        "compute a table=bott degrees=0..2\nverdict a preset=parshin_Fq\n"
    )
    listings, rank_folds = [], []
    real_listed, real_fold = dsl._listed, engine.fold

    def listed(tree, count, own):
        items = list(real_listed(tree, count, own))
        if items:  # validation lists nothing on a valid tree
            listings.append(items)
        return iter(items)

    def fold(tree, visit):
        if isinstance(visit, partial) and visit.func is engine._rank_of:
            rank_folds.append(tree)
        return real_fold(tree, visit)

    with mock.patch.object(dsl, "_listed", listed), mock.patch.object(engine, "fold", fold):
        for fmt in FORMATS:
            output, code = run_script(script, tmp_path, fmt)
            assert code == EXIT_OK
    # both runs read the classification and the rank cached by the first
    tree = script.trees["a"]
    assert len(listings) == 1 and len(listings[0]) == len(dsl.classify(tree).assumed_oracles) > 0
    assert rank_folds == [tree]


def _descent_chain(depth: int) -> str:
    lines = ["group trivial", "let a0 = point"]
    lines += [
        f"let a{i} = descent(flagbundle(a{i - 1}, rank=2, d=(1)), rank=1, pres=(2, 2), d=(1), oracle=2)"
        for i in range(1, depth + 1)
    ]
    return "\n".join(lines) + "\n"


def test_check_keeps_the_class_of_one_root_of_a_shared_chain():
    script = parse(_descent_chain(30))
    output, code = cli.check_script(script, "records")
    assert code == EXIT_OK and output.count("\n") == 31
    def kept():
        return [name for name, tree in script.trees.items() if "_membership_class" in tree.__dict__]

    assert kept() == ["a30"]
    # a dropped class is listed again on its next classify
    a29 = dsl.classify(script.trees["a29"])
    assert len(a29.assumed_oracles) == 29 and kept() == ["a29"]
    assert dsl.classify(script.trees["a29"]) is a29


@pytest.mark.parametrize(
    "oracle, error, message",
    [
        ("", UnderdeterminedError, "descent node \\(root\\) declares no oracle rank"),
        (", oracle=5", InconsistentDataError, "oracle rank 5 exceeds the total-space rank 2"),
    ],
)
def test_a_rank_fold_that_raises_raises_the_same_message_on_every_call(oracle, error, message):
    tree = parse(f"group trivial\nlet x = descent(P(1), rank=1, pres=(2, 2), d=(1){oracle})\n").trees["x"]
    messages = []
    for _ in range(3):
        with pytest.raises(error, match=message) as raised:
            compute_degree0(tree, GroupDatum(0))
        messages.append(str(raised.value))
    assert len(set(messages)) == 1
    assert "_degree0_rank" not in tree.__dict__
