"""The two benchmark workloads, built from the exhaustive corpus.

A workload is a list of members, drawn from two of the four parts below
(horn census, level build, groupoid gluing, descent census).  A member
is one input object with its fixed chain of ops; an op is one CLI
invocation (run in-process through ``cli.main``) or one library call.
Only ``Op.call`` is timed.  Its verdict -- an exit code and the bytes
whose sha256 is compared against the frozen value -- is read
afterwards, outside the timed region.

Building a workload (``build``) is the benchmark's set-up: it builds the
corpus objects and writes the input files the CLI ops read.  Nothing is
sampled, so the inputs do not depend on the seed; the seed only orders
the members (see ``order``).

Sizes are chosen so that one pass over a workload takes 5 to 11 seconds
on a 2-core Xeon, because every benchmark run has to fit several passes
into its time budget.  README.md lists where they differ from the
acceptance suites and why.
"""

import dataclasses
import json
import os
import random
from fractions import Fraction

from hornfill import cat, cli, corpus, descent, groupoid, io

# the member whose op chain is reported as largest_s, per workload: the
# slowest member at the commit that defined the benchmark
LARGEST = {
    "census": "bs3",
    "levels": "s3",
}

LEVEL_CAP = 3          # simplicial objects: bar and Cech constructions
HORN_DIM_CAP = 3       # horn census cap for check-kan
NERVE_DIM_CAP = 4      # level_build construction cap
BAR_MAX_POINTS = 3     # bar objects are built for carriers up to this size
TORSOR_MAX_POINTS = 4  # anchored variants are checked up to this size
COVER_MAX_POINTS = 4   # descent covers, refined covers included
MAX_PARTS = 3


@dataclasses.dataclass
class Op:
    name: str
    call: object       # () -> result; the timed part
    verdict: object    # result -> (exit code, bytes to digest)
    output: str = None  # file the op writes; removed before each call


@dataclasses.dataclass
class Member:
    name: str
    ops: list


def canon(x):
    """A JSON-ready, order-independent form of a report and its fields."""
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {json.dumps(canon(k)): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"cannot canonicalise {type(x).__name__}")


def canon_bytes(x):
    return json.dumps(canon(x), sort_keys=True, separators=(",", ":")).encode()


def order(members, seed):
    """The members in the seed's order; the seed changes nothing else."""
    out = list(members)
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# CLI workloads


def _write(path, data):
    with open(path, "w") as fh:
        fh.write(io.dumps(data))


def _read_output(path):
    def verdict(code):
        try:
            with open(path, "rb") as fh:
                return code, fh.read()
        except FileNotFoundError:
            return code, b""

    return verdict


def _cli_op(name, argv, output):
    argv = list(argv) + ["--output", output]
    # cli.main is looked up at call time so that a traced run sees its wrapper
    return Op(name, lambda: cli.main(argv), _read_output(output), output)


def horn_census(work):
    """check-kan on the nerve or Duskin nerve of every corpus member."""
    members = []
    inputs = [(n, cat.nerve(c, dim_cap=HORN_DIM_CAP)) for n, c in corpus.all_categories().items()]
    inputs += [
        (n, cat.duskin_nerve(c2, dim_cap=HORN_DIM_CAP))
        for n, c2 in corpus.all_two_categories().items()
    ]
    for name, result in inputs:
        path = os.path.join(work, f"{name}.nerve.json")
        _write(path, io.sset_to_json(result.sset))
        members.append(Member(name, [
            _cli_op(f"{name}/check-kan",
                    ["sset", "check-kan", path, "--dim-cap", str(HORN_DIM_CAP)],
                    os.path.join(work, f"{name}.kan.json")),
        ]))
    return members


def level_build(work):
    """Build each nerve through the CLI, then read it back four ways."""
    members = []
    cap = str(NERVE_DIM_CAP)
    for name, c in corpus.all_categories().items():
        base = os.path.join(work, name)
        src, x = f"{base}.cat.json", f"{base}.nerve.json"
        _write(src, io.category_to_json(c))
        members.append(Member(name, [
            _cli_op(f"{name}/nerve", ["cat", "nerve", src, "--dim-cap", cap], x),
            _cli_op(f"{name}/info", ["sset", "info", x], f"{base}.info.json"),
            _cli_op(f"{name}/tau", ["cat", "tau", x], f"{base}.tau.json"),
            _cli_op(f"{name}/hcat", ["cat", "hcat", x], f"{base}.hcat.json"),
            _cli_op(f"{name}/fillers-2-1", ["sset", "fillers", x, "--n", "2", "--k", "1"],
                    f"{base}.fillers21.json"),
        ]))
    for name, c2 in corpus.all_two_categories().items():
        base = os.path.join(work, name)
        src, x = f"{base}.cat2.json", f"{base}.duskin.json"
        _write(src, io.two_category_to_json(c2))
        members.append(Member(name, [
            _cli_op(f"{name}/duskin", ["cat", "duskin", src, "--dim-cap", cap], x),
            _cli_op(f"{name}/info", ["sset", "info", x], f"{base}.info.json"),
            _cli_op(f"{name}/fillers-2-1", ["sset", "fillers", x, "--n", "2", "--k", "1"],
                    f"{base}.fillers21.json"),
            _cli_op(f"{name}/fillers-3-1", ["sset", "fillers", x, "--n", "3", "--k", "1"],
                    f"{base}.fillers31.json"),
        ]))
    return members


# ---------------------------------------------------------------------------
# library workloads


def _tag(profile):
    """A cover shape's fibre sizes as an op-name fragment: (2, 1) -> "21"."""
    return "".join(map(str, profile))


def _holds(flag):
    """Verdict of a report whose exit code follows one boolean field."""
    return lambda report: (0 if getattr(report, flag) else 1, canon_bytes(report))


def _anchored_variants(act):
    """The anchored actions of acceptance suite 7, in a fixed order."""
    orbs = act.orbits()
    reps = {o: o[0] for o in orbs}
    pi_orb = {x: reps[o] for o in orbs for x in o}
    out = [
        groupoid.GroupAction(act.group, act.carrier, act.act,
                             base=(sorted(reps.values()), pi_orb)),
        groupoid.GroupAction(act.group, act.carrier, act.act,
                             base=(["pt"], {x: "pt" for x in act.carrier})),
    ]
    if len(orbs) >= 2:
        pi_m = dict(pi_orb)
        for x in orbs[1]:
            pi_m[x] = reps[orbs[0]]
        out.append(groupoid.GroupAction(
            act.group, act.carrier, act.act,
            base=(sorted({reps[o] for o in orbs} - {reps[orbs[1]]}), pi_m)))
    return out


def _torsor_op(name, action):
    def call():
        report = groupoid.check_torsor(action)
        comparison = None
        if report.is_torsor:
            comparison = groupoid.torsor_comparison(action, level_cap=LEVEL_CAP)
        return report, comparison

    def verdict(result):
        report, comparison = result
        accepted = report.is_torsor and comparison.is_iso
        return (0 if accepted else 1), canon_bytes([report, comparison])

    return Op(name, call, verdict)


def groupoid_gluing(work):
    """Groupoid-object gluing on Cech, bar and broken objects; torsors."""
    def cech_op(prof):
        cover = corpus.cover_of_shape(prof)
        pi = groupoid.FinMap(cover.e, cover.b, dict(cover.pi))
        return Op(f"cech/{_tag(prof)}",
                  lambda: groupoid.is_groupoid_object(groupoid.cech_nerve(pi, level_cap=LEVEL_CAP)),
                  _holds("holds"))

    broken = [
        ("poset1-nerve",
         lambda: corpus.nerve_object_of_category(corpus.poset_category(1))),
        ("idempotent-nerve",
         lambda: corpus.nerve_object_of_category(corpus.idempotent_monoid_category())),
        ("punctured-cech", corpus.punctured_cech_object),
    ]
    ops = [cech_op(prof) for prof in corpus.cover_shapes()]
    ops += [
        Op(f"cech/broken-{tag}", lambda build=build: groupoid.is_groupoid_object(build()),
           _holds("holds"))
        for tag, build in broken
    ]
    members = [Member("cech", ops)]
    for gname, g in corpus.all_small_groups().items():
        ops = []
        for n in range(1, TORSOR_MAX_POINTS + 1):
            for i, act in enumerate(corpus.all_actions(g, n)):
                if n <= BAR_MAX_POINTS:
                    ops.append(Op(
                        f"{gname}/bar/{n}/{i}",
                        lambda act=act: groupoid.is_groupoid_object(
                            groupoid.action_bar_object(act, level_cap=LEVEL_CAP)),
                        _holds("holds")))
                for j, variant in enumerate(_anchored_variants(act)):
                    ops.append(_torsor_op(f"{gname}/torsor/{n}/{i}/{j}", variant))
        members.append(Member(gname, ops))
    return members


def _descent_groupoid_summary(desc):
    return {
        "objects": len(desc.object_data),
        "morphisms": len(desc.morphism_data),
        "components": len(desc.groupoid.components()),
        "cardinality": groupoid.groupoid_cardinality(desc.groupoid),
    }


def descent_census(work):
    """Cech descent for every small group over the small cover shapes."""
    shapes = [p for p in corpus.cover_shapes(max_parts=MAX_PARTS) if sum(p) <= COVER_MAX_POINTS]
    covers = {p: corpus.cover_of_shape(p) for p in shapes}
    refinements = []
    for prof, cover in covers.items():
        extras = [{"b0": 1}]
        if len(cover.b) > 1:
            extras.append({b: 1 for b in cover.b})
        for extra in extras:
            if sum(prof) + sum(extra.values()) <= COVER_MAX_POINTS:
                tag = "all" if len(extra) > 1 else "b0"
                refinements.append((prof, tag, cover) + corpus.refine_cover(cover, extra))
    # the small covers of the materialised cross-checks in acceptance suite 8
    small = {p: corpus.cover_of_shape(p) for p in [(1,), (2,), (1, 1), (2, 1)]}
    members = []
    for gname, g in corpus.all_small_groups().items():
        ops = []
        for prof, cover in covers.items():
            tag = _tag(prof)
            ops += [
                Op(f"{gname}/skeleton/{tag}",
                   lambda g=g, cover=cover: descent.cech_descent_skeleton(g, cover),
                   _holds("equivalent_to_bg_power")),
                Op(f"{gname}/stack/{tag}",
                   lambda g=g, cover=cover: descent.cech_stack_report(g, cover),
                   _holds("is_stack")),
                Op(f"{gname}/truncation/{tag}",
                   lambda g=g, cover=cover: descent.truncation_agreement_cech(g, cover),
                   _holds("agree")),
            ]
        for prof, etag, cover, refined, r in refinements:
            ops.append(Op(
                f"{gname}/refine/{_tag(prof)}-{etag}",
                lambda g=g, cover=cover, refined=refined, r=r: descent.refinement_invariance(
                    g, cover, refined, r),
                lambda rep: (0 if rep.restriction_is_equivalence and rep.skeletons_agree else 1,
                             canon_bytes(rep))))
        if gname in ("c2", "c3"):
            for prof in [(1,), (2,), (2, 1)]:
                ops.append(Op(
                    f"{gname}/descent-groupoid/{_tag(prof)}",
                    lambda g=g, cover=small[prof]: descent.descent_groupoid(
                        descent.torsor_presheaf(g), cover),
                    lambda desc: (0 if len(desc.groupoid.components()) == 1 else 1,
                                  canon_bytes(_descent_groupoid_summary(desc)))))
        if gname in ("c1", "c2", "c3"):
            for prof, cover in small.items():
                presheaves = [
                    ("torsor", descent.torsor_presheaf(g)),
                    ("constant", descent.constant_bg_presheaf(g)),
                    ("doubled", descent.DoubledBGPresheaf(g, cover.b)),
                ]
                for ptag, ps in presheaves:
                    ops.append(Op(
                        f"{gname}/truncation-groupoids/{_tag(prof)}-{ptag}",
                        lambda ps=ps, cover=cover: descent.truncation_agreement_groupoids(
                            ps, cover),
                        _holds("agree")))
        members.append(Member(gname, ops))
    return members


# census: the two exhaustive censuses, of horn maps and of Cech cocycles.
# levels: the two levelwise constructions, nerve and Duskin levels and
# simplicial objects in sets, which ROADMAP item 3 puts on one level table.
# Groupoid gluing and descent both use FiniteGroup arithmetic; they sit in
# different workloads so that a gain on one cannot hide a loss on the other.
WORKLOADS = {
    "census": (horn_census, descent_census),
    "levels": (level_build, groupoid_gluing),
}


def build(workload, work):
    """Set-up: build the corpus objects and write the input files."""
    return [member for part in WORKLOADS[workload] for member in part(work)]
