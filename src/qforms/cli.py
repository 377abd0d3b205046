"""Command-line interface.

Every subcommand prints deterministic text by default and a JSON document
with ``--json``; identical invocations produce byte-identical output.
Exit codes: 0 success, 1 domain error (with a stable machine-readable
code in JSON mode), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import compose, cube as cube_mod, lattice, seifert
from .errors import DomainError, MismatchedDiscriminant, NotSquareDiscriminant
from .forms import Form, FormClass, Mat2, canonical, discriminant, form_class


def _common_options() -> argparse.ArgumentParser:
    # SUPPRESS keeps absent flags out of the namespace, so values parsed
    # before a subcommand survive the subparser's namespace merge
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON instead of text")
    common.add_argument("--cache-dir", metavar="DIR", default=argparse.SUPPRESS,
                        help="class-group cache directory (default: $QFORMS_CACHE_DIR or .qforms-cache)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="qforms",
        parents=[common],
        description="Exact arithmetic for binary quadratic forms, Gauss composition, "
                    "planes in Z^4, Bhargava cubes, and Seifert-form criteria.",
    )
    parser.add_argument("--version", action="version", version=f"qforms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="canonical representative of a form")
    p.add_argument("coeffs", type=int, nargs=3, metavar="INT", help="coefficients a b c")

    p = sub.add_parser("compose", parents=[common], help="Gauss composition of two classes")
    p.add_argument("coeffs", type=int, nargs=6, metavar="INT",
                   help="coefficients a1 b1 c1 a2 b2 c2")

    p = sub.add_parser("classgroup", parents=[common], help="the oriented class group of a discriminant")
    p.add_argument("disc", type=int, nargs="?", help="discriminant (bare, possibly negative)")
    p.add_argument("--disc", dest="disc_opt", type=int, help="discriminant (flag form)")

    p = sub.add_parser("special-squares", parents=[common],
                       help="squares of the classes [a x^2 + x y + c y^2] with 1 - 4ac = D")
    p.add_argument("disc", type=int, nargs="?")
    p.add_argument("--disc", dest="disc_opt", type=int)

    p = sub.add_parser("klein", parents=[common], help="Klein correspondence of a plane or a vector pair")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--plane", type=int, nargs=8, metavar="X",
                     help="two basis vectors, 4 coordinates each (basis-B order)")
    grp.add_argument("--pair", type=int, nargs=8, metavar="A",
                     help="two Gross vectors, row-major 2x2 entries each")

    p = sub.add_parser("cube", parents=[common], help="Bhargava cube slicings and the cube law")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--from-forms", type=int, nargs=6, metavar="C",
                     help="build a cube realizing two forms (A1 B1 C1 A2 B2 C2)")
    grp.add_argument("--slice", type=int, nargs=8, metavar="E",
                     help="slice a given cube (entries e000..e111)")

    p = sub.add_parser("seifert", parents=[common], help="Seifert-form realization queries")
    ssub = p.add_subparsers(dest="seifert_command", required=True)
    q = ssub.add_parser("exists", parents=[common], help="does a B^4-non-isotopic pair exist for D?")
    q.add_argument("disc", type=int, nargs="?")
    q.add_argument("--disc", dest="disc_opt", type=int)
    q = ssub.add_parser("pair", parents=[common], help="is (s1, s2) realizable by a disjoint pair?")
    q.add_argument("args", type=int, nargs=7, metavar="INT",
                   help="discriminant then coefficients: D a1 b1 c1 a2 b2 c2")
    q = ssub.add_parser("pairs", parents=[common], help="all realizable pairs of primitive classes")
    q.add_argument("disc", type=int, nargs="?")
    q.add_argument("--disc", dest="disc_opt", type=int)
    q.add_argument("--include-nonprimitive", action="store_true",
                   help="also stratify over non-primitive classes")
    q = ssub.add_parser("feher", parents=[common], help="Klein pair of the (p, q, k, n) family of disjoint-surface planes")
    q.add_argument("params", type=int, nargs=4, metavar="INT", help="parameters p q k n")

    p = sub.add_parser("normal-form", parents=[common],
                       help="square-discriminant normal form: residue a with [f] = [a x^2 + N x y]")
    p.add_argument("args", type=int, nargs=4, metavar="INT", help="N then coefficients a b c")

    return parser


def _resolve_disc(args) -> int:
    disc = getattr(args, "disc_opt", None)
    if disc is None:
        disc = getattr(args, "disc", None)
    if disc is None:
        print("qforms: error: a discriminant is required (bare or --disc=D)", file=sys.stderr)
        raise SystemExit(2)
    return disc


def _cache_dir(args) -> str:
    return getattr(args, "cache_dir", None) or os.environ.get("QFORMS_CACHE_DIR") or ".qforms-cache"


def _emit(args, doc: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)


def _class_doc(s: FormClass) -> dict:
    return {"class": list(s.coeffs()), "disc": s.disc}


def _cmd_reduce(args) -> None:
    f = canonical(Form(*args.coeffs))
    _emit(args, {"class": [f.a, f.b, f.c], "disc": discriminant(f)}, f"{f.a} {f.b} {f.c}")


def _cmd_compose(args) -> None:
    c = args.coeffs
    s = compose.class_compose(form_class(*c[:3]), form_class(*c[3:]))
    a, b, cc = s.coeffs()
    _emit(args, _class_doc(s), f"{a} {b} {cc}")


def _cmd_classgroup(args) -> None:
    group = compose.class_group(_resolve_disc(args), cache_dir=_cache_dir(args))
    doc = group.to_dict()
    text = "\n".join(" ".join(str(v) for v in s.coeffs()) for s in group.elements)
    _emit(args, doc, text)


def _cmd_special_squares(args) -> None:
    disc = _resolve_disc(args)
    entries = []
    for s in compose.special_classes(disc):
        sq = compose.special_square(s.a, s.c)
        entries.append({"witness": [s.a, s.c], "class": list(s.cls.coeffs()),
                        "square": list(sq.coeffs())})
    entries.sort(key=lambda e: (abs(e["witness"][0]), e["witness"][0] < 0, e["witness"]))
    doc = {"disc": disc, "squares": entries}
    text = "\n".join(
        f"({e['witness'][0]},{e['witness'][1]}) "
        f"[{' '.join(map(str, e['class']))}]^2 = [{' '.join(map(str, e['square']))}]"
        for e in entries
    )
    _emit(args, doc, text)


def _klein_doc(plane: lattice.Plane) -> dict:
    pair = lattice.klein_map(plane)
    q = lattice.q_of_plane(plane)
    doc = {
        "plane": lattice.plane_to_dict(plane),
        "pair": lattice.pair_to_dict(pair),
        "q": [q.a, q.b, q.c],
        "class": list(FormClass.of(q).coeffs()),
        "disc": discriminant(q),
        "symplectic": lattice.is_symplectic(plane),
        "orth_complement": lattice.plane_to_dict(lattice.orth_complement(plane)),
    }
    if doc["symplectic"]:
        pp = lattice.symplectic_complement(plane)
        doc["symplectic_complement"] = lattice.plane_to_dict(pp)
        doc["q_symplectic_complement"] = list(FormClass.of(lattice.q_of_plane(pp)).coeffs())
    v1, v2, ok = lattice.verify_composition_identity(pair)
    doc["composition_identity"] = {"via_plane": list(v1.coeffs()),
                                   "via_composition": list(v2.coeffs()), "holds": ok}
    return doc


def _cmd_klein(args) -> None:
    if args.plane is not None:
        v = args.plane
        plane = lattice.Plane.from_basis(Mat2.from_coords(*v[:4]),
                                         Mat2.from_coords(*v[4:]))
    else:
        v = args.pair
        plane = lattice.klein_inverse(lattice.KleinPair(
            Mat2(*v[:4]), Mat2(*v[4:])))
    doc = _klein_doc(plane)
    lines = [
        "plane basis: " + " | ".join(" ".join(map(str, row)) for row in doc["plane"]["basis"]),
        "a1: " + str(doc["pair"]["a1"]) + "  a2: " + str(doc["pair"]["a2"]),
        "q: " + " ".join(map(str, doc["q"])) + f"  class: {doc['class']}  disc: {doc['disc']}",
        "symplectic: " + ("true" if doc["symplectic"] else "false"),
        "orth complement: " + " | ".join(" ".join(map(str, row))
                                         for row in doc["orth_complement"]["basis"]),
    ]
    if doc["symplectic"]:
        lines.append("symplectic complement: " + " | ".join(
            " ".join(map(str, row)) for row in doc["symplectic_complement"]["basis"]))
        lines.append("q of symplectic complement: " +
                     " ".join(map(str, doc["q_symplectic_complement"])))
    lines.append("composition identity holds: " +
                 ("true" if doc["composition_identity"]["holds"] else "false"))
    _emit(args, doc, "\n".join(lines))


def _cmd_cube(args) -> None:
    if args.from_forms is not None:
        c = args.from_forms
        box = cube_mod.cube_from_forms(Form(*c[:3]), Form(*c[3:]))
    else:
        box = cube_mod.Cube(tuple(args.slice))
    q1, q2, q3 = cube_mod.slicings(box)
    law = cube_mod.cube_law_check(box)
    doc = {
        "entries": list(box.entries),
        "slicings": [[q.a, q.b, q.c] for q in (q1, q2, q3)],
        "classes": [list(FormClass.of(q).coeffs()) for q in (q1, q2, q3)],
        "disc": discriminant(q1),
        "law": law,
    }
    text = "\n".join([
        "entries: " + " ".join(map(str, doc["entries"])),
        "slicings: " + " | ".join(" ".join(map(str, s)) for s in doc["slicings"]),
        "classes: " + " | ".join(" ".join(map(str, s)) for s in doc["classes"]),
        "law: " + ("true" if law else "false"),
    ])
    _emit(args, doc, text)


def _cmd_seifert(args) -> None:
    cmd = args.seifert_command
    if cmd == "exists":
        disc = _resolve_disc(args)
        found, witness = seifert.nonisotopic_exists(disc)
        doc = {"disc": disc, "exists": found,
               "witness": list(witness) if witness else None, "pairs": []}
        text = "true" if found else "false"
        if witness:
            text += f"\n{witness[0]} {witness[1]}"
        _emit(args, doc, text)
    elif cmd == "pair":
        v = args.args
        disc, s1, s2 = v[0], form_class(*v[1:4]), form_class(*v[4:7])
        if s1.disc != disc or s2.disc != disc:
            raise MismatchedDiscriminant(
                f"forms have discriminants {s1.disc}, {s2.disc}, expected {disc}")
        found, witness = seifert.realizable_disjoint_pair(s1, s2)
        pairs = []
        if found:
            pairs.append({"s1": list(s1.coeffs()), "s2": list(s2.coeffs()),
                          "b4_distinguishable": seifert.b4_distinguishable(s1, s2)})
        doc = {"disc": disc, "exists": found,
               "witness": list(witness) if witness else None, "pairs": pairs}
        text = "true" if found else "false"
        if witness:
            text += f"\n{witness[0]} {witness[1]}"
        _emit(args, doc, text)
    elif cmd == "pairs":
        disc = _resolve_disc(args)
        found, witness = seifert.nonisotopic_exists(disc)
        pairs = seifert.enumerate_realizable_pairs(
            disc, include_nonprimitive=args.include_nonprimitive,
            cache_dir=_cache_dir(args))
        doc = {"disc": disc, "exists": found,
               "witness": list(witness) if witness else None, "pairs": pairs}
        lines = [
            " ".join(map(str, p["s1"])) + " | " + " ".join(map(str, p["s2"])) +
            " | b4:" + ("true" if p["b4_distinguishable"] else "false")
            for p in pairs
        ]
        _emit(args, doc, "\n".join(lines))
    else:  # feher
        p_, q_, k_, n_ = args.params
        pair, t1, t2 = seifert.feher_klein_pair(p_, q_, k_, n_)
        doc = {
            "pair": lattice.pair_to_dict(pair),
            "q_plane": [t1.a, t1.b, t1.c],
            "q_symplectic_complement": [t2.a, t2.b, t2.c],
            "disc": discriminant(t1),
        }
        text = "\n".join([
            "a1: " + str(doc["pair"]["a1"]) + "  a2: " + str(doc["pair"]["a2"]),
            "q_plane: " + " ".join(map(str, doc["q_plane"])),
            "q_symplectic_complement: " + " ".join(map(str, doc["q_symplectic_complement"])),
        ])
        _emit(args, doc, text)


def _cmd_normal_form(args) -> None:
    n, a, b, c = args.args
    f = Form(a, b, c)
    got_n, res = compose.square_normal_form(f)
    if n != got_n:
        raise NotSquareDiscriminant(f"disc({a},{b},{c}) = {discriminant(f)} != {n}^2")
    _emit(args, {"n": n, "residue": res}, str(res))


_DISPATCH = {
    "reduce": _cmd_reduce,
    "compose": _cmd_compose,
    "classgroup": _cmd_classgroup,
    "special-squares": _cmd_special_squares,
    "klein": _cmd_klein,
    "cube": _cmd_cube,
    "seifert": _cmd_seifert,
    "normal-form": _cmd_normal_form,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except DomainError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        else:
            print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
