"""Batch front end: run construction scripts, print tables and verdicts.

``simploc run <script>`` executes the script's commands in order and prints
human-readable tables; ``--format=records`` prints one JSON record per table
row instead (the form regression suites diff).  ``simploc check <script>``
only validates and classifies the declared trees.  Exit codes: 0 success,
1 validation error, 2 underdetermined computation.

User coefficient tables are declarative files, one record per degree::

    # degree  free_rank  [invariant factors ...]  [Q]
    0 1
    1 1 Q
    3 0 2 4

The trailing Q flag marks a rationalized degree (torsion is dropped).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Hashable, Iterable, Optional, Union

from .coeff import ZERO_GROUP, CoefficientTable, FgAbGroup, builtin_table, direct_sum, parse_table_file
from .dsl import MembershipClass, Tree, Violation, classify, validate_names
from .engine import (
    EngineError,
    FiberTable,
    HypothesisError,
    InconsistentDataError,
    NoVerdict,
    UnderdeterminedError,
    UnsupportedError,
    Verdict,
    ZERO_FIBER,
    compute_graded,
    parshin_check,
    positive_split_verdict,
    refute_membership_b,
    unconcentrated,
    verify_comparison,
)
from .group_rep import GroupDatum
from .script import (
    ClassifyCmd,
    ComputeCmd,
    ReportCmd,
    Script,
    ScriptError,
    VerdictCmd,
    parse,
)

RECORD_SCHEMA = "simploc.records/1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDERDETERMINED = 2


# ---------------------------------------------------------------------------
# verdict presets

PRESET_IDS = ("cyclotomic_Fp", "goodwillie_jones_Q", "parshin_Fq", "ktop_C")

_DEGREE_ZERO_FIBER = FiberTable(
    known=((0, FgAbGroup(0)), (-1, FgAbGroup(0))), complete=False
)
# each preset decided by the comparison fiber on the classifying stack: its
# default fiber and the degree it upgrades (None: every degree)
_FIBER_PRESETS = {
    "cyclotomic_Fp": (ZERO_FIBER, None),
    "goodwillie_jones_Q": (_DEGREE_ZERO_FIBER, 0),
    "ktop_C": (_DEGREE_ZERO_FIBER, 0),
}


def preset_verdict(
    preset: str,
    tree: Tree,
    group: GroupDatum,
    tree_class: Optional[MembershipClass] = None,
    fiber_override: Optional[FiberTable] = None,
) -> Union[Verdict, NoVerdict]:
    """Run a named comparison preset on a tree.

    Each preset bundles the fiber-vanishing facts of its trace theorem;
    overrides exist so property suites can probe the refusal paths.
    """
    cls = tree_class if tree_class is not None else classify(tree)
    if preset in _FIBER_PRESETS:
        default, degree = _FIBER_PRESETS[preset]
        fiber = fiber_override if fiber_override is not None else default
        return verify_comparison(fiber, cls, degree)
    if preset == "parshin_Fq":
        # a fiber probe with support off degree zero withdraws the
        # concentration hypothesis
        refused = fiber_override is not None and unconcentrated(fiber_override.known)
        return refused or parshin_check(tree, group)
    raise LookupError(f"unknown preset {preset!r} (choose from {PRESET_IDS})")


_VERDICT_LABELS = {
    "equivalence_all_degrees": "EquivalenceAllDegrees",
    "iso_in_degree": "IsoInDegree",
    "split_decomposition": "SplitDecomposition",
    "vanishing": "Vanishing",
}


def _verdict_label(verdict: Verdict) -> str:
    label = _VERDICT_LABELS[verdict.kind]
    if verdict.degree is not None:
        label += f"({verdict.degree})"
    if verdict.kind == "vanishing":
        label += "(i != 0)"
    return label


# ---------------------------------------------------------------------------
# the runner


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def text(self, line: str) -> None:
        if self.fmt == "text":
            self.lines.append(line)

    def record(self, **fields) -> None:
        if self.fmt == "records":
            fields["schema"] = RECORD_SCHEMA
            self.lines.append(json.dumps(fields, sort_keys=True))

    def degree_rows(
        self, lead: str, command: str, rows: Iterable[tuple[int, Hashable]], text_of, fields_of
    ) -> None:
        """One line per ``(degree, row)`` of a degree table.  Each distinct row
        is rendered once, in the requested format only: as ``lead``, the
        degree and ``text_of(row)``, or as the record of ``fields_of(row)``
        with command and degree.  Every field sorts after "degree", so a
        record is a fixed head, the degree and the row's rendered tail."""
        tails: dict[Hashable, str] = {}
        if self.fmt == "text":
            head, render = lead, text_of
        else:
            head = '{"command": ' + json.dumps(command) + ', "degree": '

            def render(row) -> str:
                fields = {**fields_of(row), "schema": RECORD_SCHEMA}
                assert min(fields) > "degree"
                return ", " + json.dumps(fields, sort_keys=True)[1:]

        for degree, row in rows:
            tail = tails.get(row)
            if tail is None:
                tail = tails[row] = render(row)
            self.lines.append(head + str(degree) + tail)

    def render(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def _group_fields(g: FgAbGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "invariant_factors": list(g.invariant_factors),
        "rational": g.rational,
    }


def _load_tables(script: Script, base_dir: Path) -> dict[str, CoefficientTable]:
    tables: dict[str, CoefficientTable] = {}
    for name, path in script.tables.items():
        full = Path(path)
        if not full.is_absolute():
            full = base_dir / full
        tables[name] = parse_table_file(name, full.read_text())
    return tables


def _resolve_table(
    name: str, user_tables: dict[str, CoefficientTable]
) -> CoefficientTable:
    if name in user_tables:
        return user_tables[name]
    return builtin_table(name)


def _report_violations(out: _Output, name: str, violations: list[Violation]) -> bool:
    """Print a tree's violations; True when it is well formed."""
    for v in violations:
        out.text(f"invalid {name}: {v!r}")
        out.record(command="validate", target=name, violation=repr(v))
    return not violations


def run_script(script: Script, base_dir: Path, fmt: str = "text") -> tuple[str, int]:
    """Execute a parsed script; returns (output, exit code)."""
    out = _Output(fmt)
    try:
        user_tables = _load_tables(script, base_dir)
    except (OSError, ValueError) as exc:
        out.text(f"table error: {exc}")
        out.record(command="error", kind="validation", message=f"table error: {exc}")
        return out.render(), EXIT_VALIDATION

    trees = script.trees
    for name, violations in validate_names(trees, script.group).items():
        if not _report_violations(out, name, violations):
            return out.render(), EXIT_VALIDATION

    try:
        for cmd in script.commands:
            if isinstance(cmd, ClassifyCmd):
                _run_classify(out, cmd, trees, script.group)
            elif isinstance(cmd, ComputeCmd):
                _run_compute(out, cmd, trees, script.group, user_tables)
            elif isinstance(cmd, VerdictCmd):
                _run_verdict(out, cmd, trees, script.group)
            elif isinstance(cmd, ReportCmd):
                _run_report(out, cmd, trees, script.group, user_tables)
    except UnderdeterminedError as exc:
        out.text(f"underdetermined: {exc}")
        out.record(command="error", kind="underdetermined", message=str(exc))
        return out.render(), EXIT_UNDERDETERMINED
    except (HypothesisError, UnsupportedError, InconsistentDataError, LookupError, ValueError) as exc:
        message = str(exc)
    except (OverflowError, MemoryError, RecursionError) as exc:
        # a value past what this machine can hold or build, not a bad script
        detail = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        message = f"value too large to compute ({detail})"
    else:
        return out.render(), EXIT_OK
    out.text(f"error: {message}")
    out.record(command="error", kind="validation", message=message)
    return out.render(), EXIT_VALIDATION


def _run_classify(
    out: _Output, cmd: ClassifyCmd, trees: dict[str, Tree], group: GroupDatum
) -> None:
    tree = trees[cmd.target]
    cls = classify(tree)
    evidence = None
    if cls.tag == "C" and group.is_trivial:
        # a nonzero negative-degree value certifies that no splitting exists
        try:
            evidence = refute_membership_b(tree, group)
        except EngineError:
            evidence = None
    refuted = None
    if evidence is not None:
        refuted = {"degree": evidence.degree, **_group_fields(evidence.value)}
    _report_class(out, cmd.target, cls, b_refuted=refuted)
    if evidence is not None:
        out.text(f"  not in class B: {evidence.describe()}")


def _report_class(out: _Output, name: str, cls: MembershipClass, **fields) -> None:
    out.text(f"{name}: class {cls.describe()}")
    for path in cls.assumed_oracles:
        out.text(f"  assumed oracle at {path}")
    out.record(
        command="classify",
        target=name,
        tag=cls.tag,
        prime=cls.prime,
        assumed_oracles=list(cls.assumed_oracles),
        **fields,
    )


def _run_compute(
    out: _Output,
    cmd: ComputeCmd,
    trees: dict[str, Tree],
    group: GroupDatum,
    user_tables: dict[str, CoefficientTable],
) -> None:
    tree = trees[cmd.target]
    table = _resolve_table(cmd.table, user_tables)
    cls = classify(tree)
    value = compute_graded(tree, group, table, degrees=(cmd.lo, cmd.hi))
    flags = list(value.provenance) + [f"oracle:{p}" for p in value.assumed_oracles]
    out.text(f"{cmd.target} [class {cls.describe()}; table {table.name}]")
    out.degree_rows(
        "  degree ",
        "compute",
        ((degree, value.value_at(degree)) for degree in range(cmd.lo, cmd.hi + 1)),
        lambda g: f": {g.describe()}",
        lambda g: dict(target=cmd.target, table=table.name, flags=sorted(flags), **_group_fields(g)),
    )
    for flag in flags:
        out.text(f"  provenance: {flag}")


def _run_verdict(
    out: _Output, cmd: VerdictCmd, trees: dict[str, Tree], group: GroupDatum
) -> None:
    tree = trees[cmd.target]
    verdict = preset_verdict(cmd.preset, tree, group)
    if isinstance(verdict, NoVerdict):
        out.text(f"{cmd.target} [{cmd.preset}]: {verdict.conclusion_text}")
        out.record(
            command="verdict",
            target=cmd.target,
            preset=cmd.preset,
            verdict=None,
            failed_hypothesis=verdict.failed_hypothesis,
        )
        return
    out.text(f"{cmd.target} [{cmd.preset}]: {_verdict_label(verdict)} -- {verdict.conclusion_text}")
    for h in verdict.hypotheses:
        out.text(f"  hypothesis: {h}")
    out.record(
        command="verdict",
        target=cmd.target,
        preset=cmd.preset,
        verdict=verdict.kind,
        degree=verdict.degree,
        hypotheses=list(verdict.hypotheses),
        conclusion=verdict.conclusion_text,
    )


# the rule behind the K column, by the sign of the degree
_REPORT_RULES = {
    1: "split decomposition",
    0: "degree-zero trace isomorphism",
    -1: "class-B vanishing below degree zero",
}


def _run_report(
    out: _Output,
    cmd: ReportCmd,
    trees: dict[str, Tree],
    group: GroupDatum,
    user_tables: dict[str, CoefficientTable],
) -> None:
    """Combined K / KH / HC^- table.

    Positive degrees decompose as KH + HC^-; degree zero is the trace
    isomorphism onto KH; negative degrees vanish by class-B formality.
    """
    tree = trees[cmd.target]
    cls = classify(tree)
    if cls.tag != "B":
        raise HypothesisError(
            f"report needs class B; {cmd.target} is {cls.describe()}"
        )
    kh_table = _resolve_table(cmd.kh, user_tables)
    hcm_table = _resolve_table(cmd.hcminus, user_tables)
    kh_value = compute_graded(tree, group, kh_table)
    split = positive_split_verdict(cls, cmd.hi) if cmd.hi >= 1 else None
    out.text(
        f"{cmd.target} report [class B; kh={kh_table.name}; hcminus={hcm_table.name}]"
    )
    out.text("  degree | K | KH | HC^-")

    def row(degree: int) -> tuple[int, tuple]:
        # the rule of a degree depends on its sign only
        sign = (degree > 0) - (degree < 0)
        return degree, (sign, kh_value.value_at(degree), hcm_table.group_at(degree))

    def columns(row: tuple) -> tuple[FgAbGroup, FgAbGroup, FgAbGroup]:
        sign, kh_g, hcm_g = row
        k_g = direct_sum(kh_g, hcm_g) if sign > 0 else kh_g if sign == 0 else ZERO_GROUP
        return k_g, kh_g, hcm_g

    out.degree_rows(
        "  ",
        "report",
        map(row, range(cmd.lo, cmd.hi + 1)),
        lambda row: "".join(f" | {g.describe()}" for g in columns(row)),
        lambda row: dict(
            zip(("k", "kh", "hcminus"), map(_group_fields, columns(row))),
            target=cmd.target,
            rule=_REPORT_RULES[row[0]],
        ),
    )
    if isinstance(split, Verdict):
        for h in split.hypotheses:
            out.text(f"  hypothesis: {h}")
    for p in kh_value.assumed_oracles:
        out.text(f"  assumed oracle at {p}")


def check_script(script: Script, fmt: str = "text") -> tuple[str, int]:
    """Validate and classify every declared tree; no computation."""
    out = _Output(fmt)
    code = EXIT_OK
    trees = script.trees
    for name, violations in validate_names(trees, script.group).items():
        if not _report_violations(out, name, violations):
            code = EXIT_VALIDATION
            continue
        _report_class(out, name, classify(trees[name]))
    return out.render(), code


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="simploc")
    parser.add_argument("command", choices=("run", "check"))
    parser.add_argument("script", help="construction script file")
    parser.add_argument("--format", choices=("text", "records"), default="text", dest="fmt")
    parser.add_argument(
        "--normalize-j",
        action="store_true",
        help="tighten Schubert j-sequences to the equivalent normal form",
    )
    args = parser.parse_args(argv)

    path = Path(args.script)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        script = parse(text, normalize_j_sequences=args.normalize_j)
    except (ScriptError, ValueError, EngineError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RecursionError:
        # one line's expression is parsed recursively
        print("parse error: expression nested too deeply", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "check":
        output, code = check_script(script, args.fmt)
    else:
        output, code = run_script(script, path.parent, args.fmt)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
