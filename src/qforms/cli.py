"""Command-line interface.

Every subcommand builds one JSON document and renders its text form from
that document; ``main`` prints the document with ``--json`` and the text
otherwise (``classgroup`` builds its table for ``--json`` only); like
``--cache-dir``, ``--json`` follows the command and is refused before it.
Identical invocations produce byte-identical output.  Exit codes: 0
success, 1 domain error (with a stable machine-readable code in JSON
mode), 2 usage error.  The CLI reads and writes no files: ``--cache-dir``
is accepted for compatibility and ignored.  ``lattice``, ``cube`` and
``seifert`` are imported only by the commands that use them, so the
other commands do not pay for their import at start-up.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import compose
from .errors import DomainError, MismatchedDiscriminant, NotSquareDiscriminant
from .forms import Form, FormClass, Mat2, canonical, discriminant, form_class, square_residue


def _add_disc(p: argparse.ArgumentParser) -> None:
    p.add_argument("disc", type=int, help="discriminant (bare, possibly negative, or after --)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--cache-dir", metavar="DIR",
                        help="accepted and ignored: no command reads or writes files")
    parser = argparse.ArgumentParser(
        prog="qforms",
        description="Exact arithmetic for binary quadratic forms, Gauss composition, "
                    "planes in Z^4, Bhargava cubes, and Seifert-form criteria.",
    )
    parser.add_argument("--version", action="version", version=f"qforms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name: str, run, help: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    p = command(sub, "reduce", _cmd_reduce, "canonical representative of a form")
    p.add_argument("coeffs", type=int, nargs=3, metavar="INT", help="coefficients a b c")

    p = command(sub, "compose", _cmd_compose, "Gauss composition of two classes")
    p.add_argument("coeffs", type=int, nargs=6, metavar="INT",
                   help="coefficients a1 b1 c1 a2 b2 c2")

    _add_disc(command(sub, "classgroup", _cmd_classgroup, "the oriented class group of a discriminant"))
    _add_disc(command(sub, "special-squares", _cmd_special_squares,
                      "squares of the classes [a x^2 + x y + c y^2] with 1 - 4ac = D"))

    p = command(sub, "klein", _cmd_klein, "Klein correspondence of a plane or a vector pair")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--plane", type=int, nargs=8, metavar="X",
                     help="two basis vectors, 4 coordinates each (basis-B order)")
    grp.add_argument("--pair", type=int, nargs=8, metavar="A",
                     help="two Gross vectors, row-major 2x2 entries each")

    p = command(sub, "cube", _cmd_cube, "Bhargava cube slicings and the cube law")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--from-forms", type=int, nargs=6, metavar="C",
                     help="build a cube realizing two forms (A1 B1 C1 A2 B2 C2)")
    grp.add_argument("--slice", type=int, nargs=8, metavar="E",
                     help="slice a given cube (entries e000..e111)")

    p = sub.add_parser("seifert", help="Seifert-form realization queries")
    ssub = p.add_subparsers(dest="seifert_command", required=True)
    _add_disc(command(ssub, "exists", _cmd_seifert_exists, "does a B^4-non-isotopic pair exist for D?"))
    q = command(ssub, "pair", _cmd_seifert_pair, "is (s1, s2) realizable by a disjoint pair?")
    q.add_argument("args", type=int, nargs=7, metavar="INT",
                   help="discriminant then coefficients: D a1 b1 c1 a2 b2 c2")
    q = command(ssub, "pairs", _cmd_seifert_pairs, "all realizable pairs of primitive classes")
    _add_disc(q)
    q.add_argument("--include-nonprimitive", action="store_true",
                   help="also stratify over non-primitive classes")
    q = command(ssub, "feher", _cmd_seifert_feher,
                "Klein pair of the (p, q, k, n) family of disjoint-surface planes")
    q.add_argument("params", type=int, nargs=4, metavar="INT", help="parameters p q k n")

    p = command(sub, "normal-form", _cmd_normal_form,
                "square-discriminant normal form: residue a with [f] = [a x^2 + N x y]")
    p.add_argument("args", type=int, nargs=4, metavar="INT", help="N then coefficients a b c")

    return parser


def _line(values) -> str:
    return " ".join(map(str, values))


def _bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# Commands: each returns (JSON document, text rendered from it)


def _cmd_reduce(args) -> tuple[dict, str]:
    f = canonical(Form(*args.coeffs))
    doc = {"class": [f.a, f.b, f.c], "disc": discriminant(f)}
    return doc, _line(doc["class"])


def _cmd_compose(args) -> tuple[dict, str]:
    c = args.coeffs
    s = compose.class_compose(form_class(*c[:3]), form_class(*c[3:]))
    doc = {"class": list(s.coeffs()), "disc": s.disc}
    return doc, _line(doc["class"])


def _cmd_classgroup(args) -> tuple[dict, str]:
    group = compose.class_group(args.disc)
    # the text shows the elements only, so only JSON builds the O(h^2) table
    doc = group.to_dict() if args.json else {
        "elements": [list(s.coeffs()) for s in group.elements]}
    return doc, "\n".join(_line(e) for e in doc["elements"])


def _cmd_special_squares(args) -> tuple[dict, str]:
    entries = []
    for s in compose.special_classes(args.disc):
        sq = compose.special_square(s.a, s.c)
        entries.append({"witness": [s.a, s.c], "class": list(s.cls.coeffs()),
                        "square": list(sq.coeffs())})
    doc = {"disc": args.disc, "squares": entries}
    return doc, "\n".join(
        f"({e['witness'][0]},{e['witness'][1]}) [{_line(e['class'])}]^2 = [{_line(e['square'])}]"
        for e in entries
    )


def _cmd_klein(args) -> tuple[dict, str]:
    from . import lattice

    if args.plane is not None:
        v = args.plane
        plane = lattice.Plane(Mat2.from_coords(*v[:4]), Mat2.from_coords(*v[4:]))
    else:
        v = args.pair
        plane = lattice.klein_inverse(lattice.KleinPair(Mat2(*v[:4]), Mat2(*v[4:])))
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
    lines = [
        "plane basis: " + " | ".join(map(_line, doc["plane"]["basis"])),
        "a1: " + str(doc["pair"]["a1"]) + "  a2: " + str(doc["pair"]["a2"]),
        "q: " + _line(doc["q"]) + f"  class: {doc['class']}  disc: {doc['disc']}",
        "symplectic: " + _bool(doc["symplectic"]),
        "orth complement: " + " | ".join(map(_line, doc["orth_complement"]["basis"])),
    ]
    if doc["symplectic"]:
        lines.append("symplectic complement: " +
                     " | ".join(map(_line, doc["symplectic_complement"]["basis"])))
        lines.append("q of symplectic complement: " + _line(doc["q_symplectic_complement"]))
    lines.append("composition identity holds: " + _bool(doc["composition_identity"]["holds"]))
    return doc, "\n".join(lines)


def _cmd_cube(args) -> tuple[dict, str]:
    from . import cube as cube_mod

    if args.from_forms is not None:
        c = args.from_forms
        box = cube_mod.cube_from_forms(Form(*c[:3]), Form(*c[3:]))
    else:
        box = cube_mod.Cube(tuple(args.slice))
    q1, q2, q3 = cube_mod.slicings(box)
    doc = {
        "entries": list(box.entries),
        "slicings": [[q.a, q.b, q.c] for q in (q1, q2, q3)],
        "classes": [list(FormClass.of(q).coeffs()) for q in (q1, q2, q3)],
        "disc": discriminant(q1),
        "law": cube_mod.cube_law_check(box),
    }
    return doc, "\n".join([
        "entries: " + _line(doc["entries"]),
        "slicings: " + " | ".join(map(_line, doc["slicings"])),
        "classes: " + " | ".join(map(_line, doc["classes"])),
        "law: " + _bool(doc["law"]),
    ])


def _witness_doc(disc: int, found: bool, witness, pairs: list[dict]) -> dict:
    return {"disc": disc, "exists": found,
            "witness": list(witness) if witness else None, "pairs": pairs}


def _witness_text(doc: dict) -> str:
    text = _bool(doc["exists"])
    if doc["witness"]:
        text += "\n" + _line(doc["witness"])
    return text


def _cmd_seifert_exists(args) -> tuple[dict, str]:
    from . import seifert

    doc = _witness_doc(args.disc, *seifert.nonisotopic_exists(args.disc), [])
    return doc, _witness_text(doc)


def _cmd_seifert_pair(args) -> tuple[dict, str]:
    from . import seifert

    v = args.args
    disc, s1, s2 = v[0], form_class(*v[1:4]), form_class(*v[4:7])
    if s1.disc != disc or s2.disc != disc:
        raise MismatchedDiscriminant(
            f"forms have discriminants {s1.disc}, {s2.disc}, expected {disc}")
    found, witness = seifert.realizable_disjoint_pair(s1, s2)
    pairs = [{"s1": list(s1.coeffs()), "s2": list(s2.coeffs()),
              "b4_distinguishable": seifert.b4_distinguishable(s1, s2)}] if found else []
    doc = _witness_doc(disc, found, witness, pairs)
    return doc, _witness_text(doc)


def _cmd_seifert_pairs(args) -> tuple[dict, str]:
    from . import seifert

    disc = args.disc
    pairs = seifert.enumerate_realizable_pairs(
        disc, include_nonprimitive=args.include_nonprimitive)
    found, witness = seifert.nonisotopic_exists(disc)
    doc = _witness_doc(disc, found, witness, pairs)
    return doc, "\n".join(
        f"{_line(p['s1'])} | {_line(p['s2'])} | b4:{_bool(p['b4_distinguishable'])}"
        for p in pairs
    )


def _cmd_seifert_feher(args) -> tuple[dict, str]:
    from . import lattice, seifert

    pair, t1, t2 = seifert.feher_klein_pair(*args.params)
    doc = {
        "pair": lattice.pair_to_dict(pair),
        "q_plane": [t1.a, t1.b, t1.c],
        "q_symplectic_complement": [t2.a, t2.b, t2.c],
        "disc": discriminant(t1),
    }
    return doc, "\n".join([
        "a1: " + str(doc["pair"]["a1"]) + "  a2: " + str(doc["pair"]["a2"]),
        "q_plane: " + _line(doc["q_plane"]),
        "q_symplectic_complement: " + _line(doc["q_symplectic_complement"]),
    ])


def _cmd_normal_form(args) -> tuple[dict, str]:
    n, a, b, c = args.args
    f = Form(a, b, c)
    got_n, res = square_residue(f)
    if n != got_n:
        raise NotSquareDiscriminant(f"disc({a},{b},{c}) = {discriminant(f)} != {n}^2")
    return {"n": n, "residue": res}, str(res)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, text = args.run(args)
        code, stream = 0, sys.stdout
    except DomainError as exc:
        doc, text = {"error": exc.code, "message": str(exc)}, f"error[{exc.code}]: {exc}"
        code, stream = 1, sys.stdout if args.json else sys.stderr
    print(json.dumps(doc, sort_keys=True) if args.json else text, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
