"""Command-line entry point: reproducible verification runs with JSON output.

Subcommands: roots, weyl, chebmap, verify-functional, verify-postcritical,
img-verify, automaton, act.  Every verb takes --seed (default 0), and the
randomized checks draw their samples from it; exit codes reflect pass/fail.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import chebmap as cm
from . import critical as cr
from . import monodromy as mo
from . import selfsim as ss
from .errors import WeylchebError
from .rootsys import (
    affine_compose,
    affine_identity,
    build_root_system,
    translation_element,
    verify_axioms,
    weyl_group_elements,
)


def json_text(obj) -> str:
    """obj as one line of JSON with its keys sorted, written by the json
    module's C encoder; an integer ndarray of rank >= 1 (the weyl verb's
    elements) is written as the list it stands for (_int_array)."""
    return json.dumps(obj, sort_keys=True, default=_int_array)


def _int_array(obj):
    """arr.tolist() for an integer ndarray of rank >= 1.  Anything else the
    encoder cannot write (a numpy scalar, a set, a bool, float, object or
    0-d array) raises TypeError."""
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in "iu":
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _emit(args, payload) -> None:
    """Write a verb's output, a JSON payload or finished text, to --out or
    to stdout, the same bytes either way, ending in one newline.  An --out
    that cannot be written is bad input: a WeylchebError naming it."""
    if not isinstance(payload, str):
        payload = json_text(payload)
    text = payload.rstrip("\n") + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise WeylchebError(f"cannot write --out {args.out}: "
                                f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    report = verify_axioms(rs)
    payload = {
        "type": rs.type_spec,
        "rank": rs.rank,
        "cartan": [list(r) for r in rs.cartan],
        "gram": [[str(x) for x in row] for row in rs.gram],
        "roots": [
            {
                "weight_coords": list(v.weight_coords),
                "coroot_coords": list(v.coroot_coords),
                "length_sq": v.length_sq,
            }
            for v in rs.roots
        ],
        "axioms": report.as_dict(),
        "pass": report.all_pass,
    }
    _emit(args, payload)
    return 0 if report.all_pass else 1


def cmd_weyl(args) -> int:
    rs = build_root_system(args.type)
    elements = weyl_group_elements(rs)
    payload = {
        "type": rs.type_spec,
        "order": len(elements),
        "elements": elements,
    }
    _emit(args, payload)
    return 0


def _synthesize_and_verify(args, check):
    """T_d for the verb's type and degree, and check's report on it."""
    rs = build_root_system(args.type)
    pmap = cm.build_cheb_map(rs, args.d)
    return rs, pmap, check(rs, args.d, pmap, samples=args.samples,
                           seed=args.seed)


def cmd_chebmap(args) -> int:
    rs, pmap, rep = _synthesize_and_verify(args, cm.verify_functional_equation)
    payload = cm.poly_map_as_dict(rs, args.d, pmap)
    payload["verification"] = rep.as_dict()
    _emit(args, payload)
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    """The verify verbs; the check is looked up per call, so wrappers see it."""
    check = {"verify-functional": cm.verify_functional_equation,
             "verify-postcritical": cr.post_critical_check}[args.command]
    _, _, rep = _synthesize_and_verify(args, check)
    _emit(args, rep.as_dict())
    return 0 if rep.passed else 1


def cmd_img_verify(args) -> int:
    rs = build_root_system(args.type)
    rep = mo.img_verification(rs, args.d, args.levels)
    _emit(args, rep.as_dict())
    return 0 if rep.passed else 1


def _parse_generator_word(rs, word: str):
    """Words over named generators: s<j> (simple reflections), a<b> (highest
    root wall of factor b at level 1), t<j> (unit coroot translations), id;
    "t" alone abbreviates t1 in rank one.  Tokens separated by '*' or spaces."""
    gens = dict(mo.standard_affine_generators(rs))
    g = affine_identity(rs.rank)
    tokens = [t for t in word.replace("*", " ").split() if t]
    for tok in tokens:
        if tok == "id":
            continue
        if tok == "t" and rs.rank == 1:
            tok = "t1"
        if tok.startswith("t") and tok[1:].isdigit():
            j = int(tok[1:]) - 1
            if not 0 <= j < rs.rank:
                raise WeylchebError(f"no coordinate {tok!r}")
            elem = translation_element(
                tuple(1 if i == j else 0 for i in range(rs.rank)))
        elif tok in gens:
            elem = gens[tok]
        else:
            raise WeylchebError(f"unknown generator {tok!r}")
        g = affine_compose(g, elem)
    return g


def _parse_tree_word(rs, d: int, digits: str) -> ss.TreeWord:
    if d > 10:
        raise WeylchebError("flat digit words support d <= 10 only")
    if len(digits) % rs.rank != 0:
        raise WeylchebError(
            f"word length {len(digits)} is not a multiple of rank {rs.rank}")
    bad = [c for c in digits if c not in "0123456789"[:d]]
    if bad:
        raise WeylchebError(f"tree word digit {bad[0]!r} is not in 0..{d - 1}")
    vals = [int(c) for c in digits]
    letters = tuple(tuple(vals[i:i + rs.rank])
                    for i in range(0, len(vals), rs.rank))
    return ss.TreeWord(letters, d, rs.rank)


def cmd_act(args) -> int:
    rs = build_root_system(args.type)
    g = _parse_generator_word(rs, args.word)
    tw = _parse_tree_word(rs, args.d, args.treeword)
    out = ss.act_on_word(g, tw)
    print("".join(str(c) for letter in out.letters for c in letter))
    return 0


def cmd_automaton(args) -> int:
    rs = build_root_system(args.type)
    gens = [g for _, g in mo.standard_affine_generators(rs)]
    _emit(args, ss.export_automaton(gens, args.d, fmt=args.format))
    return 0


def _int_at_least(low: int):
    """An argparse type: an int of at least `low`, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parse_args reads it without changing it, so repeated main calls in one
    process skip rebuilding the eight subparsers."""
    parser = argparse.ArgumentParser(
        prog="weylcheb",
        description="Root systems, Chebyshev-like maps, and tree monodromy")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d=False, levels=False, sampled=False):
        p.add_argument("type", help="root system type spec, e.g. A2 or B3xA1")
        if d:
            p.add_argument("d", type=_int_at_least(2),
                           help="degree parameter (>= 2)")
        if levels:
            p.add_argument("levels", type=_int_at_least(1),
                           help="tree depth to verify (>= 1)")
        if sampled:
            p.add_argument("--samples", type=_int_at_least(1), default=100)
        # every verb takes --seed, so one seed can be passed to any call
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the output here instead of stdout")

    p = sub.add_parser("roots", help="dump a root system and its axiom report")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("weyl", help="enumerate the finite Weyl group")
    common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("chebmap", help="synthesize and verify a polynomial map")
    common(p, d=True, sampled=True)
    p.set_defaults(func=cmd_chebmap)

    p = sub.add_parser("verify-functional",
                       help="check the defining functional equation")
    common(p, d=True, sampled=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-postcritical",
                       help="check critical/post-critical structure")
    common(p, d=True, sampled=True)
    p.set_defaults(func=cmd_verify, samples=50)

    p = sub.add_parser("img-verify",
                       help="check each generator loop lifts to its label")
    common(p, d=True, levels=True)
    p.set_defaults(func=cmd_img_verify)

    p = sub.add_parser("automaton", help="export the generators' automaton")
    common(p, d=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("act", help="act on a tree word by a generator word")
    p.add_argument("type")
    p.add_argument("d", type=_int_at_least(2), help="degree parameter (>= 2)")
    p.add_argument("word", help="generator word, e.g. 's1*a0' or 't'")
    p.add_argument("treeword", help="flat digit string, rank digits per letter")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_act)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WeylchebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
