"""Command-line front end.

One verb per library operation.  Decision verbs print the one-line
verdict report (or its JSON form with --format structured) and exit 0
whenever the question was answered, yes or no.  Exit 2 flags bad input
(missing files, parse errors, invalid flags); exit 3 means the
configured resource budget ran out before an answer was reached.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .build import (
    compile_linear_set,
    compile_two_positive,
    concat,
    distinct_normal_form,
    homomorphism_image,
    intersect_regular,
    inverse_homomorphism,
    reversal,
    sbd_form,
    trio_decomposition,
    union,
)
from .decide import (
    Budget,
    Verdict,
    bd_with_bound,
    contained_in_regular,
    infer_family,
    is_empty,
    is_infinite,
    is_letter_bounded,
    is_m_bounded,
    membership,
    restrict_to_instructions,
    satisfies,
)
from .machine import (
    MachineError,
    dump_machine,
    load_machine,
    save_machine,
    validate_well_formed,
)
from .nfa import ResourceBudgetError, parse_word_regex
from .oracle import bounded_equiv, caps_for, enumerate_language
from .patterns import (
    PatternSyntaxError,
    classify_families,
    generator,
    is_distinct,
    parse_pattern,
    sort_tags,
)
from .semilinear import SemilinearFormatError, load_semilinear

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

_EPS = "<eps>"


def _parse_word(text: str) -> tuple[str, ...]:
    """A word argument: symbols run together, or space-separated for
    multi-character alphabets; <eps> is the empty word."""
    if text == _EPS or text == "":
        return ()
    if " " in text:
        return tuple(text.split())
    return tuple(text)


def _parse_map(text: str) -> dict:
    """Parse a symbol map flag like "a=xy,b=" (empty image erases)."""
    image: dict = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"map entry {part!r} is not symbol=word")
        sym, word = part.split("=", 1)
        sym = sym.strip()
        if not sym:
            raise ValueError(f"map entry {part!r} names no symbol")
        image[sym] = _parse_word(word.strip())
    return image


def _emit_verdict(verdict: Verdict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(verdict.structured()))
    else:
        print(verdict.report())


def _emit_machine(machine, fmt: str, out: str | None) -> None:
    if out:
        save_machine(machine, out)
        return
    text = dump_machine(machine)
    if fmt == "structured":
        print(json.dumps({"machine": text}))
    else:
        print(text, end="")


def _int_at_least(low: int):
    """An argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return parse


def _budget_from(args) -> Budget:
    return Budget(limit=args.budget) if args.budget is not None else Budget()


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The `ncm` parser, built on the first call and reused after it;
    parse_args leaves it unchanged."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "structured"),
                        default="text", help="report style")
    shared.add_argument("--budget", type=_int_at_least(1), default=None, metavar="N",
                        help="cap on solver nodes, automaton states and built "
                        "transitions together")
    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--max-len", type=_int_at_least(0), default=8, metavar="L",
                         help="word-length horizon of the enumeration")

    parser = argparse.ArgumentParser(
        prog="ncm",
        description="Workbench for one-way reversal-bounded counter machines.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def verb(name: str, help_text: str, *parents):
        return sub.add_parser(name, parents=[shared, *parents], help=help_text)

    p = verb("validate", "check machine well-formedness")
    p.add_argument("machine")

    p = verb("member", "is a word accepted?")
    p.add_argument("machine")
    p.add_argument("word", help=f"symbols run together; {_EPS} for the empty word")

    p = verb("enumerate", "list accepted words up to --max-len", horizon)
    p.add_argument("machine")

    for name, help_text in (("empty", "is the language empty?"),
                            ("infinite", "is the language infinite?"),
                            ("letter-bounded", "inside a1*..an* for letters?")):
        p = verb(name, help_text)
        p.add_argument("machine")

    p = verb("satisfies", "do all behaviors match a pattern?")
    p.add_argument("machine")
    p.add_argument("--pattern", required=True)

    p = verb("restrict", "machine following only behaviors in a pattern")
    p.add_argument("machine")
    p.add_argument("--pattern", required=True)
    p.add_argument("-o", "--out", default=None, help="write machine here")

    p = verb("classify", "family templates a pattern falls under")
    p.add_argument("--pattern", required=True)

    p = verb("infer", "does the machine sit in a letter-bounded family?")
    p.add_argument("machine")
    p.add_argument("tag", choices=("LBd", "LBi", "LB", "LBiLBd", "StLB"))

    p = verb("m-bounded", "inside w1*..wk* with every |wi| = m?")
    p.add_argument("machine")
    p.add_argument("m", type=int)

    p = verb("bd-bounded", "behaviors inside a pattern of total length <= n?")
    p.add_argument("machine")
    p.add_argument("n", type=int)

    p = verb("compile-linear", "machine for one linear set over words")
    p.add_argument("semilinear", help="semilinear set file")
    p.add_argument("--words", required=True,
                   help="comma-separated word per coordinate")
    p.add_argument("--mode", choices=("bdi-lbd", "lbi-bdd"), default="bdi-lbd")
    p.add_argument("--component", type=int, default=0,
                   help="index of the linear component to compile")
    p.add_argument("-o", "--out", default=None)

    p = verb("compile-2positive", "machine for a 2-positive semilinear set")
    p.add_argument("semilinear")
    p.add_argument("--letters", required=True, help="comma-separated letters")
    p.add_argument("-o", "--out", default=None)

    p = verb("generator", "canonical family generator machine")
    p.add_argument("tag")
    p.add_argument("k", type=int)
    p.add_argument("-o", "--out", default=None)

    p = verb("closure", "apply a language operation")
    p.add_argument("op", choices=("union", "concat", "reversal",
                                  "hom", "invhom", "intersect"))
    p.add_argument("machines", nargs="+", help="one or two machine files")
    p.add_argument("--map", dest="symbol_map", default=None,
                   help='symbol map "a=xy,b=" for hom/invhom')
    p.add_argument("--regex", default=None,
                   help="word regex operand for intersect")
    p.add_argument("-o", "--out", default=None)

    p = verb("normalize", "distinct-behavior acceptor of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("-o", "--out", default=None)

    p = verb("decompose", "pattern, control core, and letter maps")
    p.add_argument("machine")

    p = verb("sbd-form", "short-word-behavior form of the BDiLBd generator")
    p.add_argument("k", type=int)
    p.add_argument("-o", "--out", default=None)

    p = verb("compare", "languages equal up to --max-len?", horizon)
    p.add_argument("left")
    p.add_argument("right")

    return parser


def _dispatch(args) -> int:
    fmt = args.format
    budget = _budget_from(args)
    verb = args.verb

    if verb == "validate":
        report = validate_well_formed(load_machine(args.machine))
        if fmt == "structured":
            print(json.dumps({
                "well_formed": report.is_well_formed,
                "deterministic": report.is_deterministic,
                "violations": [
                    {"kind": v.kind, "label": v.label, "detail": v.detail,
                     "on_accepting_path": v.on_accepting_path}
                    for v in report.violations],
            }))
        else:
            print(report.summary())
        return EXIT_OK

    if verb == "member":
        machine = load_machine(args.machine)
        _emit_verdict(membership(machine, _parse_word(args.word), budget), fmt)
        return EXIT_OK

    if verb == "enumerate":
        machine = load_machine(args.machine)
        sample = enumerate_language(machine, caps_for(args.max_len))
        words = sorted(sample.as_set(), key=lambda w: (len(w), w))
        if fmt == "structured":
            print(json.dumps({
                "words": ["".join(w) for w in words],
                "truncated": sample.truncated,
            }))
        else:
            for w in words:
                print("".join(w) if w else _EPS)
            if sample.truncated:
                print("note: enumeration truncated by caps", file=sys.stderr)
        return EXIT_OK

    if verb in ("empty", "infinite", "letter-bounded"):
        machine = load_machine(args.machine)
        op = {"empty": is_empty, "infinite": is_infinite,
              "letter-bounded": is_letter_bounded}[verb]
        _emit_verdict(op(machine, budget), fmt)
        return EXIT_OK

    if verb == "satisfies":
        machine = load_machine(args.machine)
        _emit_verdict(satisfies(machine, parse_pattern(args.pattern), budget), fmt)
        return EXIT_OK

    if verb == "restrict":
        machine = load_machine(args.machine)
        result = restrict_to_instructions(machine, parse_pattern(args.pattern),
                                          budget)
        _emit_machine(result, fmt, args.out)
        return EXIT_OK

    if verb == "classify":
        expr = parse_pattern(args.pattern)
        tags = sort_tags(classify_families(expr))
        distinct = "yes" if is_distinct(expr) else "no"
        if fmt == "structured":
            print(json.dumps({"tags": tags, "distinct": is_distinct(expr)}))
        else:
            print(f"tags={','.join(tags)} distinct={distinct}")
        return EXIT_OK

    if verb == "infer":
        machine = load_machine(args.machine)
        _emit_verdict(infer_family(machine, args.tag, budget), fmt)
        return EXIT_OK

    if verb == "m-bounded":
        machine = load_machine(args.machine)
        _emit_verdict(is_m_bounded(machine, args.m, budget), fmt)
        return EXIT_OK

    if verb == "bd-bounded":
        machine = load_machine(args.machine)
        _emit_verdict(bd_with_bound(machine, args.n, budget), fmt)
        return EXIT_OK

    if verb == "compile-linear":
        sls = load_semilinear(args.semilinear)
        if not 0 <= args.component < len(sls.components):
            raise ValueError(
                f"component {args.component} out of range "
                f"(file has {len(sls.components)})")
        words = [_parse_word(w) for w in args.words.split(",")]
        machine = compile_linear_set(sls.components[args.component], words,
                                     mode=args.mode)
        _emit_machine(machine, fmt, args.out)
        return EXIT_OK

    if verb == "compile-2positive":
        sls = load_semilinear(args.semilinear)
        letters = [s.strip() for s in args.letters.split(",") if s.strip()]
        _emit_machine(compile_two_positive(sls, letters), fmt, args.out)
        return EXIT_OK

    if verb == "generator":
        _emit_machine(generator(args.tag, args.k, budget), fmt, args.out)
        return EXIT_OK

    if verb == "closure":
        return _closure(args, fmt)

    if verb == "normalize":
        machine = distinct_normal_form(parse_pattern(args.pattern))
        _emit_machine(machine, fmt, args.out)
        return EXIT_OK

    if verb == "decompose":
        dec = trio_decomposition(load_machine(args.machine))

        def img(table, g):
            return "".join(table.get(g) or ())

        if fmt == "structured":
            print(json.dumps({
                "gamma": list(dec.gamma),
                "control_states": len(dec.control.states),
                "k": dec.k,
                "to_instructions": {g: img(dec.to_instructions, g)
                                    for g in dec.gamma},
                "to_input": {g: img(dec.to_input, g) for g in dec.gamma},
            }))
        else:
            print(f"gamma={len(dec.gamma)} control_states="
                  f"{len(dec.control.states)} k={dec.k}")
            for g in dec.gamma:
                print(f"  {g}: instruction={img(dec.to_instructions, g) or '-'}"
                      f" input={img(dec.to_input, g) or '-'}")
        return EXIT_OK

    if verb == "sbd-form":
        _emit_machine(sbd_form(args.k, budget), fmt, args.out)
        return EXIT_OK

    if verb == "compare":
        report = bounded_equiv(load_machine(args.left), load_machine(args.right),
                               args.max_len)
        if fmt == "structured":
            print(json.dumps({
                "status": report.status,
                "counterexample": (None if report.counterexample is None
                                   else "".join(report.counterexample)),
                "side": report.side,
                "max_word_len": report.max_word_len,
            }))
        else:
            line = f"status={report.status}"
            if report.counterexample is not None:
                word = "".join(report.counterexample) or _EPS
                line += f" counterexample={word} side={report.side}"
            print(line + f" max_word_len={report.max_word_len}")
        return EXIT_OK

    raise AssertionError(f"unhandled verb {verb!r}")


def _closure(args, fmt: str) -> int:
    op = args.op
    two_sided = op in ("union", "concat")
    want = 2 if two_sided else 1
    if len(args.machines) != want:
        raise ValueError(f"{op} takes exactly {want} machine file(s)")
    machines = [load_machine(p) for p in args.machines]
    if two_sided:
        combine = union if op == "union" else concat
        result = combine(machines[0], machines[1])
    elif op == "reversal":
        result = reversal(machines[0])
    elif op in ("hom", "invhom"):
        if not args.symbol_map:
            raise ValueError(f"{op} needs --map")
        image = _parse_map(args.symbol_map)
        apply_map = homomorphism_image if op == "hom" else inverse_homomorphism
        result = apply_map(machines[0], image)
    else:
        if not args.regex:
            raise ValueError("intersect needs --regex")
        result = intersect_regular(machines[0], parse_word_regex(args.regex))
    _emit_machine(result, fmt, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceBudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (MachineError, PatternSyntaxError, SemilinearFormatError,
            OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
