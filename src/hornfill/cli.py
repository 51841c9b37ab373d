"""Command line front end.

Sixteen subcommands over four groups:

    sset     info, check-kan, fillers
    cat      nerve, duskin, tau, hcat, maps
    grpd     quotient, stabilizer, torsor, cech
    descent  sheaf, stack, cocycles, refine

Run as `hornfill` once installed, or as `python -m hornfill` from a
checkout.  Inputs are JSON files in the formats of the io module.
Output goes to stdout (or --output) as deterministic JSON, or as a short
text summary with --format text.  Exit codes: 0 on success (and the
checked property holds, for checking commands), 1 when a checked
property fails, 2 on any engine error (bad input, failed validation,
exceeded budget).  `--budget` is offered only by the eight subcommands
that run a search (check-kan, fillers, duskin, tau, maps, stack,
cocycles, refine) and, like HORNFILL_BUDGET, must be positive.
"""

import argparse
import functools
import sys

from . import io
from .cat import duskin_nerve, fundamental_category, homotopy_category, nerve
from .config import (
    DEFAULT_BUDGET, DEFAULT_DIM_CAP, DEFAULT_LEVEL_CAP, DEFAULT_PATH_BUDGET, budget_from_env,
    positive_budget,
)
from .descent import (
    ConstantPresheaf,
    DoubledGlobalPresheaf,
    MapPresheaf,
    cech_descent_skeleton,
    cech_stack_report,
    check_sheaf_sets,
    check_stack_groupoids,
    constant_bg_presheaf,
    DoubledBGPresheaf,
    refinement_invariance,
)
from .errors import EngineError, InputError
from .groupoid import (
    FinMap,
    cech_nerve,
    check_torsor,
    groupoid_cardinality,
    is_groupoid_object,
    quotient_groupoid,
    stabilizer,
)
from .kan import classify, filler_profile
from .sset import enumerate_maps


def _budget(args, default=DEFAULT_BUDGET):
    """--budget, else HORNFILL_BUDGET, else the default; either must be positive."""
    if args.budget is not None:
        return positive_budget(args.budget, "--budget")
    return budget_from_env(default)


def _emit(args, data, lines, to_json=None):
    """Write to_json(data), io.dumps(data) by default, or with --format text
    the lines, to stdout or --output.  io.dumps is looked up at the call,
    so a wrapper put on it later sees every write."""
    if args.format == "json":
        text = (to_json or io.dumps)(data)
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _category_lines(c):
    return [
        f"objects: {len(c.objects)}",
        f"morphisms: {len(c.mor)}",
    ]


# ---------------------------------------------------------------------------
# sset


def cmd_sset_info(args):
    x = io.sset_from_json(io.load_path(args.sset))
    counts = {str(n): x.count(n) for n in range(x.dim_cap + 1)}
    nondeg = {str(n): len(x.generators(n)) for n in range(x.dim_cap + 1)}
    data = {"dim_cap": x.dim_cap, "nondegenerate": nondeg, "simplices": counts}
    lines = [f"dim_cap {x.dim_cap}"] + [
        f"level {n}: {counts[str(n)]} simplices, {nondeg[str(n)]} non-degenerate"
        for n in range(x.dim_cap + 1)
    ]
    _emit(args, data, lines)
    return 0


def cmd_sset_check_kan(args):
    x = io.sset_from_json(io.load_path(args.sset))
    report = classify(x, dim_cap=args.dim_cap, budget=_budget(args))
    lines = [
        f"weak Kan: {report.weak_kan}",
        f"Kan: {report.kan}",
        f"nerve of category: {report.nerve_of_category}",
        f"nerve of groupoid: {report.nerve_of_groupoid}",
    ] + [
        f"horn ({v.n},{v.k}): {v.horn_count} maps,"
        f" {v.unfilled} unfilled, {v.ambiguous} ambiguous"
        for v in report.verdicts
    ]
    _emit(args, report.to_json(), lines)
    return 0 if report.weak_kan else 1


def cmd_sset_fillers(args):
    x = io.sset_from_json(io.load_path(args.sset))
    profile = filler_profile(x, args.n, args.k, budget=_budget(args))
    horn_maps = sum(profile.values())
    data = {
        "n": args.n,
        "k": args.k,
        "horn_maps": horn_maps,
        "filler_profile": {str(c): profile[c] for c in sorted(profile)},
    }
    lines = [f"horn ({args.n},{args.k}): {horn_maps} maps"] + [
        f"{v} horn maps with {c} fillers" for c, v in sorted(profile.items())
    ]
    _emit(args, data, lines)
    return 0


# ---------------------------------------------------------------------------
# cat


def cmd_cat_nerve(args):
    c = io.category_from_json(io.load_path(args.category))
    result = nerve(c, dim_cap=args.dim_cap)
    lines = [
        f"level {n}: {result.sset.count(n)}" for n in range(args.dim_cap + 1)
    ]
    _emit(args, result.sset, lines, io.sset_dumps)
    return 0


def cmd_cat_duskin(args):
    c2 = io.two_category_from_json(io.load_path(args.two_category))
    result = duskin_nerve(c2, dim_cap=args.dim_cap, budget=_budget(args))
    lines = [
        f"level {n}: {result.sset.count(n)}" for n in range(args.dim_cap + 1)
    ]
    _emit(args, result.sset, lines, io.sset_dumps)
    return 0


def cmd_cat_tau(args):
    x = io.sset_from_json(io.load_path(args.sset))
    result = fundamental_category(x, path_budget=_budget(args, DEFAULT_PATH_BUDGET))
    data = io.category_to_json(result.category)
    data["universe_length"] = result.universe_length
    _emit(args, data, _category_lines(result.category))
    return 0


def cmd_cat_hcat(args):
    x = io.sset_from_json(io.load_path(args.sset))
    result = homotopy_category(x)
    data = io.category_to_json(result.category)
    _emit(args, data, _category_lines(result.category))
    return 0


def cmd_cat_maps(args):
    src = io.sset_from_json(io.load_path(args.src))
    tgt = io.sset_from_json(io.load_path(args.tgt))
    maps = enumerate_maps(src, tgt, budget=_budget(args))
    data = {
        "count": len(maps),
        "maps": [
            {g: str(ref) for g, ref in sorted(m.assignment.items())}
            for m in maps
        ],
    }
    _emit(args, data, [f"maps: {len(maps)}"])
    return 0


# ---------------------------------------------------------------------------
# grpd


def cmd_grpd_quotient(args):
    action = io.action_from_json(io.load_path(args.action))
    gpd = quotient_groupoid(action)
    card = groupoid_cardinality(gpd)
    data = io.category_to_json(gpd)
    data["cardinality"] = io.fraction_to_json(card)
    _emit(args, data, _category_lines(gpd) + [f"cardinality: {card}"])
    return 0


def cmd_grpd_stabilizer(args):
    action = io.action_from_json(io.load_path(args.action))
    if args.point not in action.carrier:
        raise InputError(f"{args.point!r} is not in the carrier")
    group = stabilizer(action, args.point)
    _emit(args, io.group_to_json(group), [f"stabilizer order: {group.order()}"])
    return 0


def cmd_grpd_torsor(args):
    action = io.action_from_json(io.load_path(args.action))
    report = check_torsor(action)
    data = {
        "pi_surjective": report.pi_surjective,
        "act_pr_bijective": report.act_pr_bijective,
        "is_torsor": report.is_torsor,
        "trivializable": report.trivializable,
        "section": report.section or None,
    }
    lines = [
        f"surjective over base: {report.pi_surjective}",
        f"action and projection biject: {report.act_pr_bijective}",
        f"torsor: {report.is_torsor}",
        f"trivializable: {report.trivializable}",
    ]
    _emit(args, data, lines)
    return 0 if report.is_torsor else 1


def cmd_grpd_cech(args):
    cover = io.cover_from_json(io.load_path(args.cover))
    pi = FinMap(cover.e, cover.b, cover.pi)
    so = cech_nerve(pi, level_cap=args.level_cap)
    report = is_groupoid_object(so)
    data = {
        "levels": {str(n): len(so.levels[n]) for n in range(so.level_cap + 1)},
        "holds": report.holds,
        "level_cap": report.level_cap,
        "witness": list(map(str, report.witness)) if report.witness else None,
        "checked": report.checked,
    }
    lines = [
        f"levels: {[len(so.levels[n]) for n in range(so.level_cap + 1)]}",
        f"groupoid object: {report.holds}",
    ]
    if report.witness:
        lines.append(f"witness: {report.witness}")
    _emit(args, data, lines)
    return 0 if report.holds else 1


# ---------------------------------------------------------------------------
# descent


def _set_presheaf(args, cover):
    values = tuple(args.values.split(","))
    if len(values) != len(set(values)) or not all(values):
        raise InputError(f"bad value set {args.values!r}")
    if args.presheaf == "representable":
        return MapPresheaf(values)
    if args.presheaf == "constant":
        return ConstantPresheaf(values)
    if args.presheaf == "doubled":
        return DoubledGlobalPresheaf(values, cover.b)
    raise InputError(f"unknown presheaf family {args.presheaf!r}")


def cmd_descent_sheaf(args):
    cover = io.cover_from_json(io.load_path(args.cover))
    presheaf = _set_presheaf(args, cover)
    report = check_sheaf_sets(presheaf, cover)
    lines = [
        f"parts condition: {report.products_ok}",
        f"equalizer condition: {report.equalizer_ok}",
        f"sheaf: {report.is_sheaf}",
    ]
    if report.witness:
        lines.append(f"witness: {report.witness}")
    _emit(args, report.to_json(), lines)
    return 0 if report.is_sheaf else 1


def cmd_descent_stack(args):
    cover = io.cover_from_json(io.load_path(args.cover))
    group = io.group_from_json(io.load_path(args.group))
    if args.presheaf == "torsor":
        report = cech_stack_report(group, cover, budget=_budget(args))
    elif args.presheaf == "constant":
        report = check_stack_groupoids(
            constant_bg_presheaf(group), cover, budget=_budget(args)
        )
    elif args.presheaf == "doubled":
        report = check_stack_groupoids(
            DoubledBGPresheaf(group, cover.b), cover, budget=_budget(args)
        )
    else:
        raise InputError(f"unknown presheaf family {args.presheaf!r}")
    lines = [
        f"parts condition: {report.products_ok}",
        f"essentially surjective: {report.essentially_surjective}",
        f"fully faithful: {report.fully_faithful}",
        f"stack: {report.is_stack}",
    ]
    if report.witness:
        lines.append(f"witness: {report.witness}")
    _emit(args, report.to_json(), lines)
    return 0 if report.is_stack else 1


def cmd_descent_cocycles(args):
    cover = io.cover_from_json(io.load_path(args.cover))
    group = io.group_from_json(io.load_path(args.group))
    report = cech_descent_skeleton(group, cover, budget=_budget(args))
    lines = [
        f"cocycles: {report.cocycle_count}",
        f"components: {report.components}",
        f"stabilizer order: {report.stabilizer_order}",
        f"cardinality: {report.cardinality}",
        f"matches one component with base-power stabilizer: {report.equivalent_to_bg_power}",
    ]
    _emit(args, report.to_json(), lines)
    return 0


def cmd_descent_refine(args):
    cover = io.cover_from_json(io.load_path(args.cover))
    refined = io.cover_from_json(io.load_path(args.refined))
    r = io.load_path(args.map)
    if not isinstance(r, dict) or not all(isinstance(v, str) for v in r.values()):
        raise InputError(
            "refinement map file must be a JSON object from refined points to cover points"
        )
    group = io.group_from_json(io.load_path(args.group))
    report = refinement_invariance(group, cover, refined, r, budget=_budget(args))
    lines = [
        f"restriction essentially surjective: {report.restriction_essentially_surjective}",
        f"restriction fully faithful: {report.restriction_fully_faithful}",
        f"restriction is equivalence: {report.restriction_is_equivalence}",
        f"skeletal censuses agree: {report.skeletons_agree}",
    ]
    _emit(args, report.to_json(), lines)
    ok = report.restriction_is_equivalence and report.skeletons_agree
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


_SEARCH_BUDGET = ("search budget: candidates the search may try in this call"
                  f" (positive, default {DEFAULT_BUDGET}; overrides HORNFILL_BUDGET)")


def _common(sub, budget_help=None):
    """--format and --output, and --budget where a search runs."""
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--output", help="write result to this file instead of stdout")
    if budget_help:
        sub.add_argument("--budget", type=int, default=None, help=budget_help)


@functools.cache
def build_parser():
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hornfill",
        description="exact horn filling, nerves, and descent over finite data",
    )
    top = parser.add_subparsers(dest="group", required=True)

    sset = top.add_parser("sset", help="simplicial set commands").add_subparsers(
        dest="command", required=True
    )
    p = sset.add_parser("info", help="validate and count simplices")
    p.add_argument("sset")
    _common(p)
    p.set_defaults(func=cmd_sset_info)
    p = sset.add_parser("check-kan", help="full horn census and the four flags")
    p.add_argument("sset")
    p.add_argument("--dim-cap", type=int, default=None)
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_sset_check_kan)
    p = sset.add_parser("fillers", help="filler profile of one horn shape")
    p.add_argument("sset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_sset_fillers)

    cat = top.add_parser("cat", help="category commands").add_subparsers(
        dest="command", required=True
    )
    p = cat.add_parser("nerve", help="nerve of a category")
    p.add_argument("category")
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    _common(p)
    p.set_defaults(func=cmd_cat_nerve)
    p = cat.add_parser("duskin", help="nerve of a strict two-category")
    p.add_argument("two_category")
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_cat_duskin)
    p = cat.add_parser("tau", help="fundamental category of a simplicial set")
    p.add_argument("sset")
    _common(p, budget_help="path budget: edge words the path universe may hold"
            f" (positive, default {DEFAULT_PATH_BUDGET}; overrides HORNFILL_BUDGET)")
    p.set_defaults(func=cmd_cat_tau)
    p = cat.add_parser("hcat", help="homotopy category of a weak Kan complex")
    p.add_argument("sset")
    _common(p)
    p.set_defaults(func=cmd_cat_hcat)
    p = cat.add_parser("maps", help="all simplicial maps between two sets")
    p.add_argument("src")
    p.add_argument("tgt")
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_cat_maps)

    grpd = top.add_parser("grpd", help="groupoid commands").add_subparsers(
        dest="command", required=True
    )
    p = grpd.add_parser("quotient", help="quotient groupoid of an action")
    p.add_argument("action")
    _common(p)
    p.set_defaults(func=cmd_grpd_quotient)
    p = grpd.add_parser("stabilizer", help="stabilizer group of a point")
    p.add_argument("action")
    p.add_argument("--point", required=True)
    _common(p)
    p.set_defaults(func=cmd_grpd_stabilizer)
    p = grpd.add_parser("torsor", help="torsor conditions for an anchored action")
    p.add_argument("action")
    _common(p)
    p.set_defaults(func=cmd_grpd_torsor)
    p = grpd.add_parser("cech", help="groupoid-object check of a cover's nerve")
    p.add_argument("cover")
    p.add_argument("--level-cap", type=int, default=DEFAULT_LEVEL_CAP)
    _common(p)
    p.set_defaults(func=cmd_grpd_cech)

    desc = top.add_parser("descent", help="sheaf and stack commands").add_subparsers(
        dest="command", required=True
    )
    p = desc.add_parser("sheaf", help="sheaf conditions for a set presheaf")
    p.add_argument("cover")
    p.add_argument("--presheaf", default="representable",
                   choices=("representable", "constant", "doubled"))
    p.add_argument("--values", default="0,1", help="comma-separated value set")
    _common(p)
    p.set_defaults(func=cmd_descent_sheaf)
    p = desc.add_parser("stack", help="stack conditions for a groupoid presheaf")
    p.add_argument("cover")
    p.add_argument("--group", required=True, help="group JSON file")
    p.add_argument("--presheaf", default="torsor",
                   choices=("torsor", "constant", "doubled"))
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_descent_stack)
    p = desc.add_parser("cocycles", help="skeletal census of cover cocycles")
    p.add_argument("cover")
    p.add_argument("--group", required=True)
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_descent_cocycles)
    p = desc.add_parser("refine", help="descent along a refinement of a cover")
    p.add_argument("cover")
    p.add_argument("refined")
    p.add_argument("map", help="JSON object sending refined points to cover points")
    p.add_argument("--group", required=True)
    _common(p, _SEARCH_BUDGET)
    p.set_defaults(func=cmd_descent_refine)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
