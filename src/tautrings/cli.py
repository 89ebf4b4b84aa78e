from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import boundary, closedforms, correlators, relationgen, stablegraphs, tautring
from .cache import CacheFile
from .exactmath import GeneratorTable, GradedPolynomial, graded_quotient, is_int

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _plain_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else _frac_str(x)


# what a command prints: the JSON payload, the plain text, the CSV text
# (None: the plain text again), and the exit code
_Result = Tuple[Dict[str, Any], str, Optional[str], int]


def _value(payload: Dict[str, Any], value: Fraction) -> _Result:
    """The output of a command whose answer is one rational number."""
    payload["value"] = _frac_str(value)
    return payload, _plain_frac(value), _frac_str(value), EXIT_OK


def _dims(payload: Dict[str, Any], dims: List[int]) -> _Result:
    """The output of a command whose answer is a list of dimensions."""
    return payload, " ".join(map(str, dims)), ",".join(map(str, dims)), EXIT_OK


def _parse_ints(text: str) -> List[int]:
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _seconds(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _common_flags(top: bool) -> argparse.ArgumentParser:
    """The flags every command takes, before or after the subcommand.  The
    subcommand's copy has no defaults (SUPPRESS), so it sets only the flags
    given after the subcommand and keeps those given before it."""
    def default(value):
        return value if top else argparse.SUPPRESS

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json", "csv"),
                        default=default("plain"))
    common.add_argument("--cache", default=default(None),
                        help="path of the persistent value cache")
    common.add_argument("--max-seconds", type=_seconds, default=default(None),
                        help="abort with exit code 1 after this wall-clock budget")
    return common


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    below = _common_flags(top=False)
    ap = argparse.ArgumentParser(
        prog="tautrings",
        parents=[_common_flags(top=True)],
        description="Exact computations with tautological rings of moduli "
                    "of curves: psi-class intersection numbers, Hodge-"
                    "integral closed forms, FZ/stable-quotient relations, "
                    "graded ring checks, genus-0 boundary presentations, "
                    "stable graphs and Jacobian sl2 operators.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[below], **kw))

    def command(name, run, **kw) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, **kw)
        parser.set_defaults(run=run)
        return parser

    c = command("correlator", _cmd_correlator, help="psi-class intersection number")
    c.add_argument("genus", type=int)
    c.add_argument("exponents", help="comma-separated psi exponents")

    h = command("hodge", _cmd_hodge, help="Hodge-integral closed forms")
    h.add_argument("flavor", choices=("lambda-g", "lambda-pair"))
    h.add_argument("genus", type=int)
    h.add_argument("exponents", help="comma-separated psi exponents")

    lk = command("lambda-in-kappa", _cmd_lambda_in_kappa,
                 help="lambda classes in odd kappas")
    lk.add_argument("genus", type=int)

    e = command("euler", _cmd_euler, help="orbifold Euler characteristic")
    e.add_argument("genus", type=int)
    e.add_argument("markings", type=int)

    for name in ("fz", "sq"):
        f = command(name, _cmd_relations, help=f"{name.upper()} kappa relations")
        f.add_argument("genus", type=int)
        f.add_argument("max_degree", type=int)

    r = command("ring-dims", _cmd_ring_dims, help="graded dimensions of the ring model")
    r.add_argument("genus", type=int)

    go = command("gorenstein", _cmd_gorenstein,
                 help="Gorenstein verification (exit 3 on failure)")
    go.add_argument("genus", type=int)

    k = command("keel", _cmd_keel, help="genus-0 boundary presentation dimensions")
    k.add_argument("markings", type=int)

    h2 = command("h2", _cmd_h2, help="rank of the second cohomology presentation")
    h2.add_argument("genus", type=int)
    h2.add_argument("markings", type=int)

    gr = command("graphs", _cmd_graphs, help="stable graphs of type (g, n)")
    gr.add_argument("genus", type=int)
    gr.add_argument("markings", type=int)
    gr.add_argument("--list", action="store_true", help="emit the graphs too")

    ja = command("jac-apply", _cmd_jac_apply, help="apply a Jacobian operator")
    ja.add_argument("operator", choices=("D", "e", "h", "h-raw"))
    ja.add_argument("genus", type=int)
    ja.add_argument("poly", help="polynomial as JSON (export format)")

    pd = command("presentation-dims", _cmd_presentation_dims,
                 help="graded quotient dims of a JSON presentation")
    pd.add_argument("presentation", help="JSON or @file with generators/relations")
    return ap


def _cmd_correlator(args) -> _Result:
    # a table of its own, as a fresh process has, so that one process's
    # calls do not pass entries from one cache file into another
    table = correlators.CorrelatorTable()
    cache = CacheFile(args.cache).load() if args.cache else None
    if cache is not None:
        cache.attach_correlators(table)
    exps = _parse_ints(args.exponents)
    value = correlators.psi_intersection(args.genus, exps, table)
    if cache is not None and cache.collect(table):
        cache.save()
    return _value({"genus": args.genus, "exponents": exps}, value)


def _cmd_hodge(args) -> _Result:
    alpha = _parse_ints(args.exponents)
    if args.flavor == "lambda-g":
        value = closedforms.lambda_g_eval(args.genus, alpha)
    else:
        value = closedforms.lambda_gm1_lambda_g_eval(args.genus, alpha)
    return _value({"flavor": args.flavor, "genus": args.genus, "alpha": alpha},
                  value)


def _cmd_lambda_in_kappa(args) -> _Result:
    lams = closedforms.lambda_from_kappa(args.genus)
    payload = {"genus": args.genus,
               "lambda": [p.export() for p in lams]}
    plain = "\n".join(f"lambda_{i} = {p!r}" for i, p in enumerate(lams))
    return payload, plain, None, EXIT_OK


def _cmd_euler(args) -> _Result:
    value = closedforms.euler_orbifold(args.genus, args.markings)
    return _value({"genus": args.genus, "markings": args.markings}, value)


def _cmd_relations(args) -> _Result:
    source = args.command.upper()
    build = relationgen.fz_relation_set if source == "FZ" else relationgen.sq_relation_set
    rels = build(args.genus, args.max_degree)
    payload = {"source": source, "genus": args.genus,
               "relations": [r.export() for r in rels]}
    plain = "\n".join(
        f"{r.source} r={r.r} index={list(r.index)}: {r.polynomial!r}" for r in rels)
    return payload, plain if rels else "(none)", None, EXIT_OK


def _cmd_ring_dims(args) -> _Result:
    dims = tautring.ring_dims(args.genus)
    return _dims({"dims": dims}, dims)


def _cmd_gorenstein(args) -> _Result:
    report = tautring.gorenstein_check(args.genus)
    ratio = (closedforms.hyperelliptic_coeff(args.genus)
             if args.genus >= 3 else None)
    payload = report.export()
    payload["socle_ratio"] = _frac_str(ratio) if ratio is not None else None
    plain = (f"dims {report.dims} pairing-ranks {report.pairing_ranks} "
             f"gorenstein {report.gorenstein}")
    return payload, plain, None, EXIT_OK if report.gorenstein else EXIT_CHECK_FAILED


def _cmd_keel(args) -> _Result:
    dims = boundary.keel_ring_dims(args.markings)
    return _dims({"dims": dims}, dims)


def _cmd_h2(args) -> _Result:
    pres = boundary.h2_presentation(args.genus, args.markings)
    rank = pres.rank()
    return ({"genus": args.genus, "markings": args.markings, "rank": rank,
             "generators": pres.names}, str(rank), str(rank), EXIT_OK)


def _cmd_graphs(args) -> _Result:
    graphs = stablegraphs.enumerate_graphs(args.genus, args.markings)
    payload: Dict[str, Any] = {"genus": args.genus, "markings": args.markings,
                               "count": len(graphs)}
    if args.list:
        payload["graphs"] = [g.export() for g in graphs]
        plain = "\n".join(repr(g) for g in graphs)
    else:
        plain = str(len(graphs))
    return payload, plain, str(len(graphs)), EXIT_OK


def _field(obj: Any, key: str) -> Any:
    """obj[key] for a JSON object given on the command line; a missing key
    is a usage error."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"input JSON object needs the key {key!r}")
    return obj[key]


def _list(what: str, value: Any, length: Optional[int] = None) -> list:
    """An input JSON array (of the given length, if one is given); any
    other value is a usage error that names `what`."""
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "an array" if length is None else f"an array of {length} entries"
        raise ValueError(f"bad {what} {value!r}: expected {shape}")
    return value


def _integer(what: str, value: Any, least: Optional[int] = None) -> int:
    """An input integer: a JSON integer, not a bool, float or string, and
    at least `least` if that is given."""
    if not is_int(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"bad {what} {value!r}: expected an integer{bound}")
    return value


def _coefficient(value: Any) -> Fraction:
    """An input coefficient: an int or a "num" / "num/den" string."""
    if is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        num, sep, den = value.partition("/")
        try:
            return Fraction(int(num), int(den) if sep else 1)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"bad coefficient {value!r}: expected an integer or "
                     f"a \"num/den\" string with den != 0")


def _cmd_jac_apply(args) -> _Result:
    from . import jacobian  # no other command uses it

    ctx = jacobian.JacContext(args.genus)
    poly = jacobian.JacPolynomial()
    for term in _list("polynomial", json.loads(args.poly)):
        coeff = _coefficient(_field(term, "coeff"))
        psi_power = _integer("psi_power", term.get("psi_power", 0))
        factors = [[_integer("factor entry", v) for v in _list("factor", f, 3)]
                   for f in _list("factors", term.get("factors", []))]
        poly = poly + jacobian.jac_monomial(psi_power, factors) * coeff
    if args.operator == "D":
        res = jacobian.apply_D(poly, ctx)
    elif args.operator == "e":
        res = jacobian.normalize(jacobian.apply_e(poly), ctx)
    elif args.operator == "h":
        res = jacobian.apply_h(poly, ctx)
    else:
        res = jacobian.apply_h_raw(poly, ctx)
    return ({"operator": args.operator, "genus": args.genus,
             "result": res.export()}, repr(res), None, EXIT_OK)


def _cmd_presentation_dims(args) -> _Result:
    text = args.presentation
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {text[1:]!r}: {exc.strerror}") from exc
    data = json.loads(text)
    pairs = [_list("generator", pair, 2)
             for pair in _list("generators", _field(data, "generators"))]
    gens = GeneratorTable([(name, _integer("generator degree", d)) for name, d in pairs])
    rels = []
    for rel in _list("relations", data.get("relations", [])):
        terms = {}
        for term in _list("relation", rel):
            expvec, coeff = _list("relation term", term, 2)
            mono = tuple(_integer("exponent", e, 0) for e in _list("exponent vector", expvec))
            # a repeated exponent vector adds up
            terms[mono] = terms.get(mono, Fraction(0)) + _coefficient(coeff)
        rels.append(GradedPolynomial(gens, terms))
    pairings = data.get("pairings", False)
    if not isinstance(pairings, bool):
        raise ValueError(f"bad pairings {pairings!r}: expected true or false")
    report = graded_quotient(gens, rels, _integer("max_degree", _field(data, "max_degree"), 0),
                             with_pairings=pairings)
    return _dims(report.export(), report.dims)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.max_seconds:
        def _timeout(signum, frame):
            raise TimeoutError(f"exceeded --max-seconds={args.max_seconds}")
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(args.max_seconds)
    try:
        payload, plain, csv, code = args.run(args)
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(csv if args.format == "csv" and csv is not None else plain)
        return code
    except ValueError as exc:  # CacheError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if args.max_seconds:
            signal.alarm(0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
