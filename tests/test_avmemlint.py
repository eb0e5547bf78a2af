"""avmemlint test suite: fixtures per rule family, suppression and
baseline round-trips, the repo self-check, and the CLI gates.

The fixture trees under tests/data/avmemlint/ use deliberately small
LintConfigs (``engine/`` as the engine scope, ``svc/`` as the service
scope) so every rule is exercised against synthetic modules rather than
the live package layout.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    LintConfig,
    build_registry,
    run_lint,
)
from repro.analysis.findings import BAD_SUPPRESSION, UNUSED_SUPPRESSION
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "data" / "avmemlint"

DET_CONFIG = LintConfig(
    randomness_modules=("rngmod.py",),
    engine_scope=("engine/",),
    hot_modules=(),
    service_modules=(),
)
HOT_CONFIG = LintConfig(
    randomness_modules=(),
    engine_scope=(),
    hot_modules=("engine/",),
    service_modules=(),
)
SVC_CONFIG = LintConfig(
    randomness_modules=(),
    engine_scope=(),
    hot_modules=(),
    service_modules=("svc/",),
)
KNOB_CONFIG = LintConfig(
    randomness_modules=(),
    engine_scope=(),
    hot_modules=(),
    service_modules=(),
    config_classes=("FixtureConfig",),
)
SUPP_CONFIG = LintConfig(
    randomness_modules=(),
    engine_scope=(),
    hot_modules=(),
    service_modules=(),
)


def lint_fixture(tree, config, rules, hygiene=False):
    """Lint a fixture tree with a rule subset.

    Partial-rule runs legitimately leave other rules' suppressions
    unused; unless ``hygiene`` is set, keep only the selected rules'
    findings so each family test asserts against its own rule.
    """
    findings = run_lint([str(FIXTURES / tree)], config=config, rules=rules)
    if hygiene:
        return findings
    return [f for f in findings if f.rule in rules]


def by_path(findings):
    out = {}
    for finding in findings:
        out.setdefault(finding.path, []).append(finding)
    return out


# -- determinism family ------------------------------------------------


def test_random_module_rule_flags_imports_and_calls():
    findings = lint_fixture("determinism", DET_CONFIG, ["random-module"])
    paths = by_path(findings)
    assert set(paths) == {"engine/bad.py"}
    symbols = sorted(f.symbol for f in paths["engine/bad.py"])
    # two module-level imports + the random.random() draw
    assert symbols == ["<module>", "<module>", "draw_stdlib"]


def test_np_random_rule_flags_unrouted_construction():
    findings = lint_fixture("determinism", DET_CONFIG, ["np-random"])
    paths = by_path(findings)
    # rngmod.py is the sanctioned module: exempt; suppressed.py is waived.
    assert set(paths) == {"engine/bad.py"}
    snippets = {f.snippet for f in paths["engine/bad.py"]}
    assert snippets == {
        "from numpy.random import default_rng",
        "return np.random.default_rng()",
        "return default_rng()",
    }


def test_wall_clock_rule_allows_perf_counter():
    findings = lint_fixture("determinism", DET_CONFIG, ["wall-clock"])
    assert [(f.path, f.symbol) for f in findings] == [("engine/bad.py", "stamp")]


def test_set_iteration_rule_needs_rng_or_record_context():
    findings = lint_fixture("determinism", DET_CONFIG, ["set-iteration"])
    assert [(f.path, f.symbol) for f in findings] == [("engine/bad.py", "pick")]
    assert "sorted(...)" in findings[0].message


def test_determinism_suppressions_are_honored_and_consumed():
    findings = lint_fixture(
        "determinism", DET_CONFIG, ["np-random", "wall-clock"], hygiene=True
    )
    # suppressed.py contributes nothing: no findings, and both waivers
    # match a real finding so no unused-suppression hygiene report.
    assert all(f.path != "engine/suppressed.py" for f in findings)


# -- hot-loop family ---------------------------------------------------


def test_hot_loop_flags_every_population_loop_shape():
    findings = lint_fixture("hotloops", HOT_CONFIG, ["hot-loop"])
    paths = by_path(findings)
    assert set(paths) == {"engine/bad.py"}
    flagged = {f.symbol for f in paths["engine/bad.py"]}
    assert flagged == {"total_degree", "index_walk", "labels", "degrees"}
    assert all("Population row space" in f.message for f in findings)


def test_hot_loop_ignores_k_sized_and_off_scope_loops():
    findings = lint_fixture("hotloops", HOT_CONFIG, ["hot-loop"])
    assert all(f.path not in ("engine/clean.py", "other/offpath.py") for f in findings)


def test_default_scope_reaches_the_monitor_package():
    """``monitor/`` is a hot module by default: the per-sample population
    walks the coarse-view sampler once had are the shape in
    ``hotloops/monitor/sampler.py``."""
    assert "monitor/" in LintConfig().hot_modules
    config = LintConfig(
        randomness_modules=(), engine_scope=(), service_modules=(),
        hot_modules=LintConfig().hot_modules,
    )
    paths = by_path(lint_fixture("hotloops", config, ["hot-loop"]))
    assert set(paths) == {"monitor/sampler.py"}
    flagged = {f.symbol for f in paths["monitor/sampler.py"]}
    assert flagged == {"Sampler.sample_for", "Sampler.online_pool"}


# -- service family ----------------------------------------------------


def test_lock_discipline_flags_unreachable_unlocked_mutation():
    findings = lint_fixture("service", SVC_CONFIG, ["lock-discipline"])
    assert [(f.path, f.symbol) for f in findings] == [
        ("svc/locks_bad.py", "BadSession.bump")
    ]
    assert "without acquiring" in findings[0].message


def test_lock_discipline_accepts_run_command_reachability():
    findings = lint_fixture("service", SVC_CONFIG, ["lock-discipline"])
    assert all(f.path != "svc/locks_ok.py" for f in findings)


def test_journal_coverage_flags_unjournaled_command():
    findings = lint_fixture("service", SVC_CONFIG, ["journal-coverage"])
    assert [(f.path, f.symbol) for f in findings] == [
        ("svc/journal_bad.py", "BadCommands.advance")
    ]
    assert "self.sim.run_until" in findings[0].message


def test_journal_coverage_follows_intra_class_helpers():
    findings = lint_fixture("service", SVC_CONFIG, ["journal-coverage"])
    assert all(f.path != "svc/journal_ok.py" for f in findings)


# -- dead-knob --------------------------------------------------------


def test_dead_knob_flags_fields_nothing_consumes():
    findings = lint_fixture("deadknobs", KNOB_CONFIG, ["dead-knob"])
    assert [(f.path, f.symbol) for f in findings] == [
        ("settings.py", "FixtureConfig"),
        ("settings.py", "FixtureConfig"),
    ]
    # fanout is read by consumer.py; hash_name is only validated and
    # only ever *written* (replace(..., hash_name=...)); legacy_mode is
    # mentioned nowhere.  Unlisted is not a configured settings class.
    assert [f.snippet for f in findings] == [
        'hash_name: str = "mix64"',
        "legacy_mode: bool = False",
    ]
    assert all("dead knob" in f.message for f in findings)


def test_dead_knob_would_have_caught_the_unread_hash_name(tmp_path):
    """Regression for the five-PR dead knob: strip the one consumer of
    ``AvmemConfig.hash_name`` from a copy of the two modules involved
    and the rule must start naming exactly that field."""

    def dead_fields(tree, strip):
        for rel in ("core/config.py", "simulation.py"):
            target = tree / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            source = (REPO_ROOT / "src" / "repro" / rel).read_text()
            if strip:
                assert rel != "simulation.py" or "make_hash(config.hash_name)" in source
                source = source.replace("make_hash(config.hash_name)", "None")
            target.write_text(source)
        findings = run_lint([str(tree)], rules=["dead-knob"])
        return {f.snippet.split(":")[0] for f in findings if f.symbol == "AvmemConfig"}

    wired = dead_fields(tmp_path / "wired", strip=False)
    stripped = dead_fields(tmp_path / "stripped", strip=True)
    assert stripped - wired == {"hash_name"}
    assert run_lint([str(REPO_ROOT / "src" / "repro")], rules=["dead-knob"]) == []


# -- suppression hygiene ----------------------------------------------


def test_reasonless_suppression_is_inert_and_reported():
    findings = lint_fixture("suppressions", SUPP_CONFIG, ["np-random"], hygiene=True)
    rules = sorted(f.rule for f in findings)
    assert rules == [BAD_SUPPRESSION, "np-random", UNUSED_SUPPRESSION]
    bad = next(f for f in findings if f.rule == BAD_SUPPRESSION)
    assert bad.symbol == "fork"
    unused = next(f for f in findings if f.rule == UNUSED_SUPPRESSION)
    assert "wall-clock" in unused.message


# -- fingerprints and the baseline ------------------------------------


def _finding(line=10, snippet="for node in nodes:"):
    return Finding(
        rule="hot-loop",
        path="engine/bad.py",
        line=line,
        column=4,
        message="msg",
        symbol="total_degree",
        snippet=snippet,
    )


def test_fingerprint_is_line_number_independent():
    assert _finding(line=10).fingerprint() == _finding(line=99).fingerprint()
    assert (
        _finding(snippet="for node in nodes:").fingerprint()
        != _finding(snippet="for nid in node_ids:").fingerprint()
    )


def test_baseline_roundtrip_new_and_stale(tmp_path):
    findings = lint_fixture("hotloops", HOT_CONFIG, ["hot-loop"])
    assert findings
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(str(path))
    loaded = Baseline.load(str(path))

    comparison = loaded.compare(findings)
    assert not comparison.new and not comparison.stale
    assert len(comparison.baselined) == len(findings)

    # Paying down one finding leaves a stale entry (honest burn-down).
    comparison = loaded.compare(findings[1:])
    assert len(comparison.stale) == 1
    assert comparison.stale[0]["fingerprint"] == findings[0].fingerprint()

    # A never-seen finding is new even with the rest baselined.
    extra = _finding(snippet="for nid in node_ids: pass")
    comparison = loaded.compare(findings + [extra])
    assert [f.fingerprint() for f in comparison.new] == [extra.fingerprint()]


def test_baseline_rejects_foreign_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "entries": {}}')
    with pytest.raises(ValueError):
        Baseline.load(str(path))


def test_registry_rejects_unknown_rule_ids():
    with pytest.raises(ValueError, match="unknown rule"):
        build_registry().select(["no-such-rule"])


# -- the repo self-check ----------------------------------------------


def test_src_repro_has_zero_non_baselined_findings():
    findings = run_lint([str(REPO_ROOT / "src" / "repro")])
    baseline = Baseline.load(str(REPO_ROOT / "lint-baseline.json"))
    comparison = baseline.compare(findings)
    assert comparison.new == [], "\n".join(f.render() for f in comparison.new)
    assert comparison.stale == [], (
        "stale baseline entries — regenerate with `repro lint --write-baseline`"
    )


def test_committed_baseline_is_the_hot_loop_burn_down():
    baseline = Baseline.load(str(REPO_ROOT / "lint-baseline.json"))
    assert baseline.entries
    assert {entry["rule"] for entry in baseline.entries.values()} == {"hot-loop"}


# -- CLI ---------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "random-module",
        "np-random",
        "wall-clock",
        "set-iteration",
        "hot-loop",
        "lock-discipline",
        "journal-coverage",
        "dead-knob",
    ):
        assert rule_id in out


def _write_engine_module(root, body):
    engine = root / "ops"
    engine.mkdir(parents=True, exist_ok=True)
    (engine / "engine.py").write_text(textwrap.dedent(body))
    return root


def test_cli_gate_fails_on_injected_bare_default_rng(tmp_path, capsys):
    """The acceptance gate: a bare np.random.default_rng() smuggled into
    a hot-path module must fail `repro lint --fail-on-new`."""
    tree = _write_engine_module(
        tmp_path,
        """
        import numpy as np


        def build():
            return np.random.default_rng()
        """,
    )
    rc = main(
        ["lint", str(tree), "--no-baseline", "--fail-on-new", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["counts"]["new"] == 1
    assert payload["new"][0]["rule"] == "np-random"


def test_cli_clean_tree_passes_gate(tmp_path, capsys):
    tree = _write_engine_module(
        tmp_path,
        """
        def build(streams):
            return streams.pop()
        """,
    )
    rc = main(
        ["lint", str(tree), "--no-baseline", "--fail-on-new", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["counts"] == {
        "new": 0,
        "baselined": 0,
        "stale": 0,
    }


def test_cli_stale_baseline_guard(tmp_path, capsys):
    tree = _write_engine_module(
        tmp_path,
        """
        import numpy as np


        def build():
            return np.random.default_rng()
        """,
    )
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(tree), "--write-baseline", "--baseline", str(baseline)]) == 0
    assert (
        main(
            [
                "lint", str(tree), "--baseline", str(baseline),
                "--fail-on-new", "--fail-on-stale",
            ]
        )
        == 0
    )
    # Pay the debt down without regenerating: the stale guard trips.
    _write_engine_module(tmp_path, "def build(streams):\n    return streams.pop()\n")
    assert (
        main(["lint", str(tree), "--baseline", str(baseline), "--fail-on-stale"]) == 1
    )
    out = capsys.readouterr().out
    assert "stale" in out
    # Regenerating the baseline clears it.
    assert main(["lint", str(tree), "--write-baseline", "--baseline", str(baseline)]) == 0
    assert (
        main(
            [
                "lint", str(tree), "--baseline", str(baseline),
                "--fail-on-new", "--fail-on-stale",
            ]
        )
        == 0
    )


def test_cli_unknown_rule_is_an_error():
    with pytest.raises(SystemExit):
        main(["lint", str(FIXTURES / "hotloops"), "--rules", "bogus"])
