"""The named check suite: coverage, determinism and failure attribution."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import gpdkit
import gpdkit.builders
import gpdkit.theorems
from gpdkit import (
    CHECKS,
    ValidationReport,
    render_report,
    report_document,
    run_checks,
)

EXPECTED_IDS = (
    "def-groupoid",
    "def-morgroupoid",
    "prop-genconj",
    "def-princgroupoid",
    "def-unitbun",
    "prop-prophi",
    "lem-prodbun",
    "lem-fibprod",
    "def-trivbun",
    "lem-inverequiv",
    "thm-gengaugeeq",
    "thm-gaugeinvdiv",
    "prop-gaugegr",
    "thm-gaugegroupoid",
    "lem-prodhilskand1",
    "lem-fibprodhils",
    "prop-proddivhils",
    "thm-gengaugehils",
    "prop-gaugegrhils",
    "thm-hsgaugegroupoid",
)


def test_check_inventory():
    assert tuple(check for check, _ in CHECKS) == EXPECTED_IDS
    for _, description in CHECKS:
        assert description


def test_all_checks_pass_on_clean_inputs(docs):
    results = run_checks(seed=42, max_size=12, fixtures=docs)
    assert tuple(r.check for r in results) == EXPECTED_IDS
    for r in results:
        assert r.ok, f"{r.check}: {r.witness}"
        assert r.instances > 0
        assert r.witness == ""


def test_reports_are_deterministic(docs):
    a = run_checks(seed=7, max_size=10, fixtures=docs)
    b = run_checks(seed=7, max_size=10, fixtures=docs)
    assert a == b
    assert render_report(a) == render_report(b)
    assert report_document(a, 7, 10) == report_document(b, 7, 10)


def test_report_bytes_are_pinned(docs):
    # Determinism alone passes a change that alters the report the same
    # way on every run; these digests hold on Python 3.10 to 3.13.
    for max_size, digest in (
        (12, "1b308a0a8fee504f47bf8ac85a926a1cdc24821fb600cef1e1e5eac0fbb3c62c"),
        (4, "2f64919aa61bbbe88eb8974675aa3238948c4ceea0825ad3aa1608269a352c17"),
    ):
        text = render_report(run_checks(42, max_size, docs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, max_size


def test_report_bytes_are_pinned_under_lowered_oracle_bounds(docs, monkeypatch):
    # At the default bounds every valid bundle is within them; these bounds
    # drop instances from the oracle statements, so the filter is pinned too.
    for bounds, digest in (
        ("total=6", "ddda581dff9116c0e0f314c8d956ffb9abedc5b23209d6246689156bc6298457"),
        ("base=1", "7600ea794ff3c69db35f4cc7c25d804c1c6dce1c3a2f66bc204f739eacf7bd2a"),
    ):
        monkeypatch.setenv("GPDKIT_ORACLE_BOUNDS", bounds)
        text = render_report(run_checks(42, 12, docs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, bounds


def test_bibundle_pairs_pass_the_oracle_bound_filter(docs, monkeypatch):
    # the random bibundle pairs have 12 arrows; like every other oracle
    # instance they are dropped under a lower bound instead of refused
    monkeypatch.setenv("GPDKIT_ORACLE_BOUNDS", "arrows=4")
    text = render_report(run_checks(42, 12, docs))
    assert text.endswith("\n20/20 checks passed\n")


def test_render_report_shape(docs):
    results = run_checks(seed=42, max_size=10, fixtures=docs)
    text = render_report(results)
    lines = text.splitlines()
    assert len(lines) == len(EXPECTED_IDS) + 1
    for line, check in zip(lines, EXPECTED_IDS):
        assert line.startswith(f"PASS {check} (")
        assert line.endswith(" instances)")
    assert lines[-1] == f"{len(EXPECTED_IDS)}/{len(EXPECTED_IDS)} checks passed"

    doc = json.loads(report_document(results, 42, 10))
    assert doc["seed"] == 42 and doc["max_size"] == 10 and doc["ok"] is True
    assert [c["check"] for c in doc["checks"]] == list(EXPECTED_IDS)


def test_a_check_without_instances_is_empty_not_passed():
    results = run_checks(seed=42, max_size=1, fixtures={})
    empty = [r.check for r in results if r.instances == 0]
    assert len(empty) == 18
    assert all(not r.ok and r.status == "EMPTY" for r in results if r.instances == 0)
    lines = render_report(results).splitlines()
    for line, r in zip(lines, results):
        if r.instances == 0:
            assert line == f"EMPTY {r.check} (0 instances)"
        else:
            assert line.startswith(f"PASS {r.check} (")
    assert lines[-1] == f"2/{len(EXPECTED_IDS)} checks passed"

    doc = json.loads(report_document(results, 42, 1))
    assert doc["ok"] is False
    assert [c["check"] for c in doc["checks"] if not c["ok"]] == empty


def test_corrupted_groupoid_fails_only_its_own_check(docs):
    broken = dict(docs)
    pair2 = broken["pair2.gpd"]
    compose = dict(pair2.compose)
    compose[("(0,1)", "(1,0)")] = "(1,1)"
    broken["pair2.gpd"] = type(pair2)(
        pair2.objects,
        pair2.arrows,
        pair2.source,
        pair2.target,
        pair2.unit,
        pair2.inverse,
        compose,
    )
    results = run_checks(seed=42, max_size=12, fixtures=broken)
    failing = {r.check for r in results if not r.ok}
    assert failing == {"def-groupoid"}
    culprit = next(r for r in results if r.check == "def-groupoid")
    assert "pair2.gpd" in culprit.witness
    text = render_report(results)
    assert "FAIL def-groupoid" in text
    assert f"{len(EXPECTED_IDS) - 1}/{len(EXPECTED_IDS)} checks passed" in text


def test_corrupted_bundle_fails_only_bundle_checks(docs, unit_z2):
    broken = dict(docs)
    act = dict(unit_z2.act)
    key = next(k for k in sorted(act) if act[k] != k[0])
    act[key] = key[0]
    broken["unit-z2.bnd"] = type(unit_z2)(
        unit_z2.groupoid,
        unit_z2.total,
        unit_z2.base,
        unit_z2.projection,
        unit_z2.momentum,
        act,
    )
    results = run_checks(seed=42, max_size=12, fixtures=broken)
    failing = {r.check for r in results if not r.ok}
    assert failing == {"def-princgroupoid"}
    culprit = next(r for r in results if r.check == "def-princgroupoid")
    assert "unit-z2.bnd" in culprit.witness


def _rotated(mapping: dict) -> dict:
    """mapping with each key sent to the next key's value, in key order."""
    keys = sorted(mapping)
    return {k: mapping[keys[(i + 1) % len(keys)]] for i, k in enumerate(keys)}


def _failing_report(*args) -> ValidationReport:
    r = ValidationReport()
    r.add("broken")
    return r


def _raises(message: str):
    """A broken version that raises ValueError(message) on any input."""

    def broken(orig):
        def raising(*args):
            raise ValueError(message)

        return raising

    return broken


def _drop_compose_entry(gg):
    compose = dict(gg.groupoid.compose)
    del compose[min(compose)]
    return replace(gg, groupoid=replace(gg.groupoid, compose=compose))


# (name in gpdkit.theorems, broken version of it given the original,
#  the statement that must fail, a text its witness must contain)
BROKEN_CONSTRUCTIONS = [
    ("validate_morphism", lambda orig: _failing_report, "def-morgroupoid", "identity: broken"),
    ("isotropy_group", lambda orig: lambda G, x: G, "def-morgroupoid", "isotropy at"),
    (
        "division_map",
        lambda orig: lambda B, p, q: orig(B, q, p),
        "def-unitbun",
        "at (",
    ),
    (
        "product_bundle",
        lambda orig: lambda B1, B2: replace(
            (P := orig(B1, B2)), act={k: v for k, v in P.act.items() if k != min(P.act)}
        ),
        "lem-prodbun",
        "table.act.missing",
    ),
    (
        "trivialize",
        lambda orig: lambda B, section: orig(B, {**section, "nowhere": min(section.values())}),
        "def-trivbun",
        "not a base point: 'nowhere'",
    ),
    (
        "enumerate_bundle_morphisms",
        lambda orig: lambda B1, B2: [
            replace(f, mapping={p: min(f.mapping.values()) for p in f.mapping})
            for f in orig(B1, B2)
        ],
        "lem-inverequiv",
        "a non-bijective morphism",
    ),
    (
        "enumerate_bundle_morphisms",
        lambda orig: lambda B1, B2: orig(B1, B2)[1:],
        "thm-gengaugeeq",
        " morphisms vs ",
    ),
    (
        "morphism_to_ggt",
        lambda orig: lambda f: replace(
            (K := orig(f)), values=dict(list(K.values.items())[1:])
        ),
        "thm-gengaugeeq",
        "enumerations are not each other's images",
    ),
    (
        "ggt_to_morphism",
        lambda orig: lambda K: replace((f := orig(K)), mapping=_rotated(f.mapping)),
        "thm-gengaugeeq",
        "morphism round-trip moved a point",
    ),
    (
        "check_division_invariance",
        lambda orig: lambda f: orig(replace(f, mapping=_rotated(f.mapping))),
        "thm-gaugeinvdiv",
        "division.invariance[",
    ),
    (
        "gauge_group",
        lambda orig: lambda B: replace((g := orig(B)), unit=(g.unit + 1) % g.order),
        "prop-gaugegr",
        "unit is not the pointwise unit arrow",
    ),
    (
        "gauge_group",
        lambda orig: lambda B: replace(
            (g := orig(B)), product=dict(list(g.product.items())[1:])
        ),
        "prop-gaugegr",
        "product table not total",
    ),
    (
        "enumerate_ggts",
        lambda orig: lambda B1, B2: (Ks := orig(B1, B2)) + Ks[:1],
        "prop-gaugegr",
        " self-GGTs",
    ),
    (
        "ggt_to_gauge",
        lambda orig: lambda K: replace((t := orig(K)), values=_rotated(t.values)),
        "prop-gaugegr",
        "GGT correspondence moved an element",
    ),
    (
        "build_gauge_groupoid",
        lambda orig: lambda family: _drop_compose_entry(orig(family)),
        "thm-gaugegroupoid",
        "table.compose.missing",
    ),
    (
        "enumerate_ggts",
        lambda orig: lambda B1, B2: orig(B1, B2)[1:],
        "thm-gaugegroupoid",
        "differs from the oracle",
    ),
    (
        "gauge_to_ggt",
        lambda orig: lambda t: replace(orig(t), values={}),
        "thm-gaugegroupoid",
        "isotropy mismatch at",
    ),
    (
        "star",
        lambda orig: lambda K23, K12: K23,
        "thm-gaugegroupoid",
        "compose disagrees with star",
    ),
    # a check that raises fails with the error's text
    (
        "star",
        lambda orig: lambda K23, K12: orig(K12, K23),
        "thm-gaugegroupoid",
        "middle bundles differ",
    ),
    (
        "hs_gauge_group",
        lambda orig: lambda h: replace(
            (g := orig(h)), elements=tuple(replace(t, values={}) for t in g.elements)
        ),
        "prop-gaugegrhils",
        "invariant elements escape the gauge group",
    ),
    (
        "hs_gauge_group",
        lambda orig: lambda h: replace((g := orig(h)), unit=(g.unit + 1) % g.order),
        "prop-gaugegrhils",
        "unit is not the pointwise unit arrow",
    ),
    (
        "hs_gauge_group",
        lambda orig: lambda h: replace(
            (g := orig(h)), product={k: g.order for k in g.product}
        ),
        "prop-gaugegrhils",
        "product of elements 0 and 0 is not pointwise",
    ),
    (
        "build_hs_gauge_groupoid",
        lambda orig: lambda family: _drop_compose_entry(orig(family)),
        "thm-hsgaugegroupoid",
        "table.compose.missing",
    ),
    (
        "build_gauge_groupoid",
        lambda orig: lambda family: replace(
            (gg := orig(family)), groupoid=replace(gg.groupoid, arrows=frozenset())
        ),
        "thm-hsgaugegroupoid",
        "an invariant arrow is missing from the full groupoid",
    ),
    # constructions and validators whose verdict decides a row
    ("generalized_conjugation", _raises("no conjugation"), "prop-genconj", "no conjugation"),
    ("validate_action", _raises("no action check"), "prop-genconj", "no action check"),
    ("verify_division_properties", _raises("no laws"), "prop-prophi", "no laws"),
    ("fibred_product", _raises("no fibred product"), "lem-fibprod", "no fibred product"),
    ("hs_product", _raises("no bibundle product"), "lem-prodhilskand1", "no bibundle product"),
    (
        "hs_fibred_product",
        _raises("fibred product needs a shared domain"),
        "lem-fibprodhils",
        "fibred product needs a shared domain",
    ),
    (
        "verify_hs_division_properties",
        _raises("no invariance check"),
        "prop-proddivhils",
        "no invariance check",
    ),
    # the bibundle definition and the generators fail the statement they feed
    ("validate_hs", _raises("no bibundle check"), "prop-proddivhils", "no bibundle check"),
    ("random_groupoid", _raises("no groupoid"), "def-groupoid", "groupoid[seed=42]: no groupoid"),
    (
        "random_bundle",
        _raises("no bundle"),
        "def-princgroupoid",
        "bundles over gauge-z2.gpd: no bundle",
    ),
    (
        "random_hs",
        _raises("no bibundle"),
        "prop-proddivhils",
        "bibundles[seed offset=0]: no bibundle",
    ),
    # and so do the unit bundles and identity bibundles the sweeps validate
    (
        "unit_bundle",
        _raises("no unit bundle"),
        "def-princgroupoid",
        "unit bundle of pair2.gpd: no unit bundle",
    ),
    (
        "hs_from_groupoid_morphism",
        _raises("no identity bibundle"),
        "prop-proddivhils",
        "identity bibundle on pair2.gpd: no identity bibundle",
    ),
]


@pytest.mark.parametrize(
    "name, broken, check, detail",
    BROKEN_CONSTRUCTIONS,
    ids=[f"{case[2]}-{case[0]}-{i}" for i, case in enumerate(BROKEN_CONSTRUCTIONS)],
)
def test_a_broken_construction_fails_its_statement(docs, monkeypatch, name, broken, check, detail):
    """Each failure branch of the statement helpers names its discrepancy;
    a construction that raises fails the instance instead of the run."""
    monkeypatch.setattr(gpdkit.theorems, name, broken(getattr(gpdkit.theorems, name)))
    results = run_checks(42, 4, docs)
    assert tuple(r.check for r in results) == EXPECTED_IDS
    result = next(r for r in results if r.check == check)
    assert result.status == "FAIL"
    assert detail in result.witness


# (name in gpdkit.theorems, a wrong construction given the original that
#  still runs, the statement that must fail): statements that checked only
#  that these did not raise passed them all at seed 42
CENSUS_MUTANTS = [
    (
        "gauge_group",
        lambda orig: lambda B: replace(
            (g := orig(B)),
            product={(i, j): (i + j) % g.order for i in range(g.order) for j in range(g.order)},
        ),
        "prop-gaugegr",
    ),
    (
        "gauge_group",
        lambda orig: lambda B: replace((g := orig(B)), inverse=tuple(range(g.order))),
        "prop-gaugegr",
    ),
    ("hs_gauge_group", lambda orig: lambda h: gpdkit.gauge_group(h.bundle), "prop-gaugegrhils"),
    ("trivialize", lambda orig: lambda B, section: None, "def-trivbun"),
    ("fibred_product", lambda orig: gpdkit.product_bundle, "lem-fibprod"),
]


def test_census_mutants_fail_a_statement_at_seed_42(docs, monkeypatch):
    """Each statement reads what its construction returns: a gauge group
    whose product is (i + j) mod n or whose elements are their own
    inverses, an invariant gauge group that is the whole gauge group, a
    trivialization that returns None and a fibred product that is the
    product bundle each fail their statement at the default size."""
    for name, mutant, check in CENSUS_MUTANTS:
        with monkeypatch.context() as patch:
            patch.setattr(gpdkit.theorems, name, mutant(getattr(gpdkit.theorems, name)))
            results = run_checks(seed=42, fixtures=docs)
        failed = [r.check for r in results if r.status == "FAIL"]
        assert failed == [check], (name, failed)


@pytest.mark.parametrize(
    "oracle, check",
    [("enumerate_ggts", "thm-gengaugeeq"), ("enumerate_bundle_morphisms", "lem-inverequiv")],
)
def test_a_raising_oracle_fails_the_statements_that_read_it(docs, monkeypatch, oracle, check):
    """The oracles run inside the sweeps that read them, so one that raises
    fails those statements' rows instead of the run."""
    monkeypatch.setattr(gpdkit.theorems, oracle, _raises(f"no {oracle}")(None))
    results = run_checks(42, 4, docs)
    assert tuple(r.check for r in results) == EXPECTED_IDS
    result = next(r for r in results if r.check == check)
    assert result.status == "FAIL"
    assert f"no {oracle}" in result.witness


VALIDATORS = {
    "validate_groupoid": "random_groupoid",
    "validate_bundle": "random_bundle",
    "validate_hs": "random_hs",
}


def test_generated_structures_are_validated_once(docs, monkeypatch):
    """A structure made by random_groupoid, random_bundle or random_hs is
    validated by its generator's self-check and not again by its
    definitional statement; the spies keep every argument, so no id is
    reused during the run."""
    made: dict[str, list] = {name: [] for name in VALIDATORS.values()}
    calls: dict[str, list] = {name: [] for name in VALIDATORS}

    def spy(log: list, orig):
        def wrapper(*args):
            out = orig(*args)
            log.append((args[0], out))
            return out

        return wrapper

    for validator, generator in VALIDATORS.items():
        for module in (gpdkit.builders, gpdkit.theorems):
            orig = getattr(module, validator)
            monkeypatch.setattr(module, validator, spy(calls[validator], orig))
        orig = getattr(gpdkit.theorems, generator)
        monkeypatch.setattr(gpdkit.theorems, generator, spy(made[generator], orig))
    results = run_checks(seed=42, max_size=4, fixtures=docs)
    assert all(r.ok for r in results)
    for validator, generator in VALIDATORS.items():
        assert made[generator], generator
        counts = [sum(x is y for x, _ in calls[validator]) for _, y in made[generator]]
        assert counts == [1] * len(counts), validator


def test_a_generator_whose_self_check_fails_fails_its_statement(docs, monkeypatch):
    """A generated bundle's definitional row is its generator's self-check:
    a violation there fails def-princgroupoid although the sweep does not
    validate the bundle again."""
    monkeypatch.setattr(gpdkit.builders, "validate_bundle", _failing_report)
    results = run_checks(42, 4, docs)
    result = next(r for r in results if r.check == "def-princgroupoid")
    assert result.status == "FAIL"
    assert "built bundle fails validation" in result.witness
