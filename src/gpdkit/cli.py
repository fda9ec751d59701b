"""Command line interface over document files.

Exit codes: 0 when every requested check passes, 1 when a structure or
statement fails validation (the report carries witnesses), 2 for usage,
parse and bound errors.  All output is deterministic for fixed inputs
and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .builders import (
    GeneratorError,
    GeneratorSpec,
    OracleBoundError,
    enumerate_bundle_morphisms,
    random_bundle,
    random_groupoid,
    random_hs,
)
from .bundles import (
    IntegrityError,
    NotSameFiberError,
    PrincipalBundle,
    division_map,
    validate_bundle,
)
from .core import (
    FiniteGroupoid,
    GroupoidMorphism,
    LeftAction,
    RightAction,
    ValidationReport,
    validate_action,
    validate_groupoid,
    validate_morphism,
)
from .gauge import (
    GGT,
    BundleMorphism,
    build_gauge_groupoid,
    gauge_group,
    identity_ggt,
    invert_ggt,
    star,
    validate_bundle_morphism,
    validate_ggt,
)
from .hs import (
    HSBundleMorphism,
    HSMorphism,
    build_hs_gauge_groupoid,
    hs_gauge_group,
    validate_hs,
    validate_hs_morphism,
)
from .serialize import SchemaError, dumps, kind_of, loads
from .theorems import render_report, report_document, run_checks

__all__ = ["main"]


class _CliError(Exception):
    """Ends a command with code; main prints a non-empty message as
    "error: message" on stderr."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(2, f"cannot read {path}: {e.strerror or e}") from None
    try:
        return loads(text)
    except SchemaError as e:
        raise _CliError(2, f"{path}: {e}") from None


def _load_as(path: str, kind: str):
    doc = _load(path)
    if kind_of(doc) != kind:
        raise _CliError(2, f"{path}: expected a {kind} document, got {kind_of(doc)}")
    return doc


_VALIDATORS = (
    (FiniteGroupoid, validate_groupoid),
    (GroupoidMorphism, validate_morphism),
    (LeftAction, validate_action),
    (RightAction, validate_action),
    (PrincipalBundle, validate_bundle),
    (BundleMorphism, validate_bundle_morphism),
    (GGT, validate_ggt),
    (HSMorphism, validate_hs),
    (HSBundleMorphism, validate_hs_morphism),
)


def _print_violations(path: str, report) -> None:
    print(f"{path}: {len(report.violations)} violations")
    for v in report.violations:
        print(f"  {v}")


def _validate(path: str, doc) -> ValidationReport:
    for cls, validator in _VALIDATORS:
        if isinstance(doc, cls):
            return validator(doc)
    raise _CliError(2, f"{path}: no validator for {kind_of(doc)}")


def _cmd_validate(args) -> int:
    bad = False
    for path in args.files:
        report = _validate(path, _load(path))
        if report.ok:
            print(f"{path}: ok")
        else:
            bad = True
            _print_violations(path, report)
    return 1 if bad else 0


def _cmd_divide(args) -> int:
    (B,) = _valid_inputs("bundle", [args.bundle])
    print(division_map(B, args.p, args.q))
    return 0


def _format_mapping(mapping: dict[str, str]) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(mapping.items()))


def _cmd_morphisms(args) -> int:
    B1, B2 = _valid_inputs("bundle", [args.bundle1, args.bundle2])
    morphisms = enumerate_bundle_morphisms(B1, B2)
    print(f"{len(morphisms)} morphisms")
    for i, f in enumerate(morphisms):
        print(f"morphism {i}: {_format_mapping(f.mapping)}")
    return 0


def _valid_inputs(kind: str, paths: list[str]) -> list:
    """The kind documents at paths, each validated with its kind's
    validator.  The constructions assume valid inputs, so when any is
    invalid the command prints the violations of every invalid one, as
    gpdkit validate does, and exits 1 instead of computing from a bad
    table.  The groupoids a bundle or bibundle embeds are validated too;
    validate_ggt covers its own."""
    docs = [_load_as(path, kind) for path in paths]
    ok = True
    for path, doc in zip(paths, docs):
        report = _validate(path, doc)
        for name in ("groupoid", "dom", "cod"):
            if hasattr(doc, name):
                report.extend(validate_groupoid(getattr(doc, name)), prefix=f"{name}.")
        if not report.ok:
            ok = False
            _print_violations(path, report)
    if not ok:
        raise _CliError(1, "")
    return docs


_GGT_ACTIONS = {
    "compose": (star, 2, "ggt compose needs two ggt files (outer, inner)"),
    "invert": (invert_ggt, 1, "ggt invert needs one ggt file"),
    "identity": (identity_ggt, 1, "ggt identity needs one bundle file"),
}


def _cmd_ggt(args) -> int:
    action, count, usage = _GGT_ACTIONS[args.action]
    if len(args.files) != count:
        raise _CliError(2, usage)
    docs = _valid_inputs("bundle" if args.action == "identity" else "ggt", args.files)
    print(dumps(action(*docs)), end="")
    return 0


def _print_gauge_group(gg) -> None:
    print(f"order {gg.order}")
    print(f"unit {gg.unit}")
    for i, t in enumerate(gg.elements):
        print(f"element {i}: {_format_mapping(t.values)}")


def _cmd_gauge_group(args) -> int:
    (B,) = _valid_inputs("bundle", [args.bundle])
    _print_gauge_group(gauge_group(B))
    return 0


def _cmd_hs_gauge_group(args) -> int:
    (h,) = _valid_inputs("hs", [args.hs])
    _print_gauge_group(hs_gauge_group(h))
    return 0


def _cmd_gauge_groupoid(args) -> int:
    members = _valid_inputs("hs" if args.hs else "bundle", args.files)
    gg = (build_hs_gauge_groupoid if args.hs else build_gauge_groupoid)(members)
    report = validate_groupoid(gg.groupoid)
    print(f"objects {' '.join(sorted(gg.groupoid.objects))}")
    print(f"arrows {len(gg.groupoid.arrows)}")
    print(f"valid {'yes' if report.ok else 'no'}")
    if args.export:
        Path(args.export).write_text(dumps(gg.groupoid), encoding="utf-8")
        print(f"exported {args.export}")
    if not report.ok:
        for v in report.violations:
            print(f"  {v}")
        return 1
    return 0


# The gen options each kind never reads, and those a groupoid loaded
# from a file replaces; giving one is an error, not a no-op.
_GEN_UNREAD = {
    "groupoid": ("max_total", "base", "groupoid", "dom", "cod"),
    "bundle": ("dom", "cod"),
    "hs": ("max_objects", "base", "groupoid"),
}
_GEN_REPLACED = {
    "groupoid": ("max_objects", "max_group_order"),
    "dom": ("max_group_order",),
}


def _cmd_gen(args) -> int:
    # checked in order, so a file option the kind never reads is named first
    unread = [(name, "") for name in _GEN_UNREAD[args.what]]
    for loaded, names in _GEN_REPLACED.items():
        if getattr(args, loaded) is not None:
            unread += [(name, f" with --{loaded}") for name in names]
    for name, reason in unread:
        if getattr(args, name) is not None:
            option = "--" + name.replace("_", "-")
            raise _CliError(2, f"gen {args.what}{reason} does not read {option}")
    bounds = {
        name: getattr(args, name)
        for name in ("max_objects", "max_group_order", "max_total")
        if getattr(args, name) is not None
    }
    spec = GeneratorSpec(seed=args.seed, **bounds)
    if args.what == "groupoid":
        doc = random_groupoid(spec)
    elif args.what == "bundle":
        if args.groupoid:
            (G,) = _valid_inputs("groupoid", [args.groupoid])
        else:
            G = random_groupoid(spec)
        doc = random_bundle(G, 2 if args.base is None else args.base, spec)
    else:
        # every given file is validated before any is used, as one input list
        loaded = iter(_valid_inputs("groupoid", [path for path in (args.dom, args.cod) if path]))
        if args.dom:
            G = next(loaded)
        else:
            G = random_groupoid(
                GeneratorSpec(spec.seed, max_objects=2, max_group_order=spec.max_group_order)
            )
        if args.cod:
            H = next(loaded)
        else:
            H = random_groupoid(
                GeneratorSpec(spec.seed + 1, max_objects=2, max_group_order=3)
            )
        doc = random_hs(G, H, spec)
    print(dumps(doc), end="")
    return 0


def _cmd_check_theorems(args) -> int:
    fixtures = None
    if args.fixtures is not None:
        root = Path(args.fixtures)
        if not root.is_dir():
            raise _CliError(2, f"not a directory: {args.fixtures}")
        fixtures = {}
        for entry in sorted(root.iterdir()):
            if entry.is_file() and not entry.name.startswith("."):
                fixtures[entry.name] = _load(str(entry))
    results = run_checks(seed=args.seed, max_size=args.max_size, fixtures=fixtures)
    print(render_report(results), end="")
    if args.report:
        Path(args.report).write_text(
            report_document(results, args.seed, args.max_size), encoding="utf-8"
        )
    return 0 if all(r.ok for r in results) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace and
    # leaves the parser unchanged, so every main call can share it.
    parser = argparse.ArgumentParser(
        prog="gpdkit",
        description="Finite groupoids, principal bundles and gauge groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate document files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("divide", help="divide two points of a bundle")
    p.add_argument("bundle", metavar="BUNDLE")
    p.add_argument("p", metavar="P")
    p.add_argument("q", metavar="Q")
    p.set_defaults(handler=_cmd_divide)

    p = sub.add_parser("morphisms", help="enumerate bundle morphisms")
    p.add_argument("bundle1", metavar="BUNDLE1")
    p.add_argument("bundle2", metavar="BUNDLE2")
    p.set_defaults(handler=_cmd_morphisms)

    p = sub.add_parser("ggt", help="operate on gauge transformation documents")
    p.add_argument("action", choices=("compose", "invert", "identity"))
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=_cmd_ggt)

    p = sub.add_parser("gauge-group", help="enumerate the gauge group of a bundle")
    p.add_argument("bundle", metavar="BUNDLE")
    p.set_defaults(handler=_cmd_gauge_group)

    p = sub.add_parser(
        "hs-gauge-group", help="enumerate the invariant gauge group of a bibundle"
    )
    p.add_argument("hs", metavar="HS")
    p.set_defaults(handler=_cmd_hs_gauge_group)

    p = sub.add_parser(
        "gauge-groupoid", help="assemble the groupoid of gauge transformations"
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--export", metavar="FILE", help="write the groupoid document")
    p.add_argument(
        "--hs", action="store_true", help="treat inputs as bibundles, keep invariant arrows"
    )
    p.set_defaults(handler=_cmd_gauge_groupoid)

    p = sub.add_parser("gen", help="generate a random structure")
    p.add_argument("what", choices=("groupoid", "bundle", "hs"))
    p.add_argument("--seed", type=int, required=True)
    # size bounds left out take GeneratorSpec's defaults
    p.add_argument("--max-objects", type=int, help="not for gen hs")
    p.add_argument("--max-group-order", type=int)
    p.add_argument("--max-total", type=int, help="not for gen groupoid")
    p.add_argument("--base", type=int, help="base size for gen bundle (default 2)")
    p.add_argument("--groupoid", metavar="FILE", help="structure groupoid for gen bundle")
    p.add_argument("--dom", metavar="FILE", help="domain groupoid for gen hs")
    p.add_argument("--cod", metavar="FILE", help="codomain groupoid for gen hs")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("check-theorems", help="run the full check suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-size", type=int, default=12)
    p.add_argument("--fixtures", metavar="DIR", help="fixture directory (default: built-in set)")
    p.add_argument("--report", metavar="FILE", help="also write a JSON report")
    p.set_defaults(handler=_cmd_check_theorems)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as e:
        if e.message:
            print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except (NotSameFiberError, IntegrityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OracleBoundError, GeneratorError, ValueError, KeyError) as e:
        message = e.args[0] if e.args else str(e)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
