"""The named check suite: coverage, determinism and failure attribution."""

from __future__ import annotations

import hashlib
import json

from gpdkit import (
    CHECKS,
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
