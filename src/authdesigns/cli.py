"""Command-line front end.

Thin wrappers over the library: identical inputs through the CLI and the
library produce identical artifacts.  Exit codes are a stable contract:
0 success/valid, 1 domain failure (including failed verification), 2
malformed input, 3 work budget exceeded, 141 stdout closed by its reader
(128 + SIGPIPE, as a shell reports a command the signal ends).  Each
command imports only the library modules it runs; `--help` and argument
errors load none.
"""

from __future__ import annotations

import argparse
import os
import sys

from .budget import ENV_VAR, charge
from .errors import (AuthDesignsError, BudgetError, ConstructionError,
                     DomainError, StructuralError)
from .fileio import (atomic_write_json, canonical_dumps, digest,
                     fraction_to_json, integer, load_json, show_int)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _decimal(n: int) -> str:
    """str(n), refused past the interpreter's int-to-text digit limit."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(f"a result of {n.bit_length()} bits has more than "
                          f"{sys.get_int_max_str_digits()} digits, too many "
                          "to print") from None


def _fmt_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _emit(args, lines, doc):
    if args.format == "json":
        print(canonical_dumps(doc))
    else:
        for line in lines:
            print(line)


def _strength(args, t_file, what):
    """--t, else the file's t, else a refusal naming `what`."""
    t = args.t if args.t is not None else t_file
    if t is None:
        raise DomainError(f"{what} needs a strength: pass --t or store \"t\" in the file")
    return t


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    doc = load_json(args.path)
    if args.kind == "design":
        from . import designs
        design, t_file, lam_file = designs.design_from_json(doc)
        t = _strength(args, t_file, "design verification")
        lam = args.lambda_ if args.lambda_ is not None else lam_file
        report = designs.verify_design(design, t, lam, budget=args.budget)
        detail = {"kind": "design", "t": t, "lambda": lam}
    elif args.kind == "cdf":
        from . import difference_families as dfs
        df = dfs.df_from_json(doc)
        report = dfs.verify_df(df, budget=args.budget)
        detail = {"kind": "cdf", "lambda": df.lambda_}
    else:
        from . import apa as apa_mod
        array = apa_mod.apa_from_json(doc)
        report = apa_mod.verify_apa(array, budget=args.budget)
        detail = {"kind": "apa", "t": array.t, "lambda": array.lambda_}
    out_doc = {**detail, **report.to_json(),
               "path": os.path.basename(args.path), "input_digest": digest(doc)}
    report_path = args.out or args.path + ".report.json"
    atomic_write_json(out_doc, report_path)
    lines = [f"valid: {str(report.valid).lower()}"]
    if report.inferred_lambda is not None:
        lines.append(f"inferred lambda: {report.inferred_lambda}")
    lines += [f"failure: witness={show_int(w)} observed={show_int(o)}"
              for w, o in report.failures[:5]]
    lines.append(f"report: {report_path}")
    _emit(args, lines, out_doc)
    return EXIT_OK if report.valid else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# build

def cmd_build(args) -> int:
    from . import balancing, designs
    doc = load_json(args.path)
    if args.kind == "cdf":
        from . import difference_families as dfs
        df = dfs.df_from_json(doc)
        dfs.verify_df(df, budget=args.budget).require(
            DomainError, "input is not a valid difference family")
        matrix = dfs.develop_matrix(df)
        t, lam, source = 2, df.lambda_, "cdf"
        input_doc = dfs.df_to_json(df)
    else:
        design, t_file, lam_file = designs.design_from_json(doc)
        t = _strength(args, t_file, "building from a design")
        report = designs.verify_design(design, t, lam_file, budget=args.budget)
        report.require(DomainError, f"input is not a valid {t}-design")
        lam = report.inferred_lambda
        matrix = balancing.balance(design)   # raises if v does not divide b
        source = "design"
        input_doc = designs.design_to_json(design, t, lam)
    params = designs.DesignParameters(t=t, v=matrix.v, k=matrix.k, lambda_=lam)
    balancing.verify_balanced(matrix).require(ConstructionError,
                                              "built matrix is unbalanced")
    out_path = args.out or os.path.splitext(args.path)[0] + "-matrix.json"
    input_digest = digest(input_doc)
    atomic_write_json(balancing.matrix_to_json(
        matrix, {"source": source, "input_digest": input_digest}), out_path)
    info = {"v": matrix.v, "k": matrix.k, "b": matrix.b,
            "rows_per_message": matrix.b // matrix.v,
            "optimality_class": designs.optimality_class(params),
            "out": out_path, "input_digest": input_digest}
    lines = [f"v={matrix.v} k={matrix.k} b={matrix.b} "
             f"b/v={matrix.b // matrix.v} class={info['optimality_class']}",
             f"matrix: {out_path}"]
    if args.table:
        lines.append(balancing.format_matrix_table(matrix))
    _emit(args, lines, info)
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack

def _parse_orders(text: str, check):
    """Orders from a comma list of parts, each ASCII digits or a lo-hi
    range of them with lo <= hi; anything else is a ValueError.  Each
    part's upper end passes `check` before its range is expanded."""
    orders = set()
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        hi = hi if dash else lo
        if not all(s.isascii() and s.isdigit() for s in (lo, hi)) or (
                int(lo) > int(hi)):
            raise ValueError(part)
        check(int(hi))
        orders.update(range(int(lo), int(hi) + 1))
    return sorted(orders)


def cmd_attack(args) -> int:
    from . import analysis, balancing
    doc = load_json(args.path)
    matrix = balancing.matrix_from_json(doc)
    system = analysis.SecrecySystem(matrix)
    try:
        orders = _parse_orders(args.orders, lambda i: analysis.check_order(
            system, args.model, i))
    except ValueError as exc:
        raise StructuralError(f"cannot parse --orders {show_int(args.orders)}") from exc
    report = analysis.analyze(system, args.model, orders, budget=args.budget)
    out_doc = analysis.report_to_json(report, digest=digest(doc))
    lines = [f"i={res.i} value={_fmt_fraction(res.value)} "
             f"bound={_fmt_fraction(res.bound)} "
             f"tight={'yes' if res.tight else 'no'}" for res in report.orders]
    if "security_order" in out_doc:
        lines.append(f"security order: {out_doc['security_order']}")
    if args.out:
        atomic_write_json(out_doc, args.out)
        lines.append(f"report: {args.out}")
    _emit(args, lines, out_doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# params

def _readings(params, budget):
    """The charged λ_s table of `params` as (s, λ_s) pairs, its fractional
    pairs, which make `params` inadmissible, and, only when there are none,
    (b, b_opt, b mod v): b = λ_0, b_opt = λ_0/λ = C(v,t)/C(k,t)."""
    from .designs import lambda_table
    table = list(enumerate(lambda_table(params, budget)))
    bad = [(s, val) for s, val in table if val.denominator != 1]
    lam0 = table[0][1]
    return table, bad, None if bad else (
        lam0.numerator, lam0 / params.lambda_, lam0.numerator % params.v)


def cmd_params(args) -> int:
    from . import designs
    if args.teirlinck:
        if args.t is None or args.v is None:
            raise DomainError("--teirlinck needs --t and --v")
        params, b = designs.teirlinck_params(args.t, args.v, args.budget)
        modulus, b = _decimal(params.lambda_), _decimal(b)
        doc = {"mode": "teirlinck", "t": params.t, "v": params.v, "k": params.k,
               "lambda": modulus, "modulus": modulus, "b": b}
        lines = [f"congruence: v ≡ t (mod {modulus})",
                 f"params: {params.t}-({params.v},{params.k},{modulus})", f"b = {b}"]
        _emit(args, lines, doc)
        return EXIT_OK

    if None in (args.t, args.v, args.k, args.lambda_):
        raise DomainError("params needs --t, --v, --k and --lambda")
    params = designs.DesignParameters(t=args.t, v=args.v, k=args.k,
                                      lambda_=args.lambda_)
    table, bad, counts = _readings(params, args.budget)
    # the lines come first: _fmt_fraction refuses a number too long to print
    lines = [f"lambda_{s} = {_fmt_fraction(val)}" for s, val in table]
    doc = {"t": params.t, "v": params.v, "k": params.k, "lambda": params.lambda_,
           "lambda_s": [{"s": s, "value": fraction_to_json(val)} for s, val in table],
           "admissible": not bad}
    if bad:
        lines.append("inadmissible: " + ", ".join(
            f"lambda_{s}={_fmt_fraction(val)}" for s, val in bad))
        _emit(args, lines, doc)
        return EXIT_DOMAIN
    b, bound, rem = counts
    ratio, kind = b / bound, designs.optimality_class(params)
    doc.update({"b": str(b), "b_opt": fraction_to_json(bound),
                "ratio": fraction_to_json(ratio), "divisible": not rem,
                "b_mod_v": rem, "optimality_class": kind})
    lines += [f"b = {b}",
              f"b_opt = {_fmt_fraction(bound)}  (ratio {_fmt_fraction(ratio)})",
              f"v | b: {'no' if rem else 'yes'} (b mod v = {rem})", f"class: {kind}"]
    _emit(args, lines, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog

def _entry_doc(entry):
    doc = {"name": entry.name, "kind": entry.kind, "summary": entry.summary,
           "note": entry.note}
    if entry.params is not None:
        doc["params"] = {"t": entry.params.t, "v": entry.params.v,
                         "k": entry.params.k, "lambda": entry.params.lambda_}
    if entry.b_opt is not None:
        doc["b_opt"] = entry.b_opt
    return doc


def cmd_catalog(args) -> int:
    from . import catalog, designs
    if args.action == "list":
        rows = catalog.entries()
        width = max(len(e.name) for e in rows)
        lines = [f"{e.name:<{width}}  {e.kind:<11}  {e.summary}" for e in rows]
        _emit(args, lines, [_entry_doc(e) for e in rows])
        return EXIT_OK

    if not args.name:
        raise DomainError(f"catalog {args.action} needs a NAME")
    try:
        entry = catalog.get(args.name)
    except KeyError as exc:
        raise DomainError(exc.args[0]) from None

    if args.action == "show":
        doc = _entry_doc(entry)
        lines = [f"name: {entry.name}", f"kind: {entry.kind}",
                 f"summary: {entry.summary}", f"note: {entry.note}"]
        if entry.params is not None:
            p = entry.params
            lines.append(f"params: {p.t}-({p.v},{p.k},{p.lambda_})")
            _, bad, counts = _readings(p, args.budget)
            if not bad:
                b, bound, rem = counts
                doc.update({"b": str(b), "divisible": not rem,
                            "b_opt_exact": fraction_to_json(bound),
                            "optimality_class": designs.optimality_class(p)})
                lines.append(f"b = {b}; v | b: {'no' if rem else 'yes'}; "
                             f"b_opt = {_fmt_fraction(bound)}; "
                             f"class = {doc['optimality_class']}")
        if entry.b_opt is not None:
            lines.append(f"published b_opt = {entry.b_opt}")
        _emit(args, lines, doc)
        return EXIT_OK

    # export
    payload = catalog.load_payload(entry.name, args.budget)
    if payload is None:
        raise DomainError(f"{entry.name} is a parameter-only row; no payload to export")
    out_path = args.out or f"{entry.name}.json"
    if entry.kind == "design":
        out_doc = designs.design_to_json(*payload)
    elif entry.kind == "cdf":
        from . import difference_families as dfs
        out_doc = dfs.df_to_json(payload)
    else:
        from . import apa as apa_mod
        out_doc = apa_mod.apa_to_json(payload)
    atomic_write_json(out_doc, out_path)
    _emit(args, [f"wrote {out_path}"], {"name": entry.name, "out": out_path})
    return EXIT_OK


# ---------------------------------------------------------------------------
# apa

def cmd_apa(args) -> int:
    from . import apa as apa_mod
    # the array comes back only once verify_apa has passed it
    array = apa_mod.van_rees_array(args.budget)
    doc = {"t": array.t, "k": array.k, "v": array.v, "lambda": array.lambda_,
           "rows": len(array.rows), "valid": True}
    lines = [f"APA_{array.lambda_}({array.t},{array.k},{array.v}): "
             f"{len(array.rows)} rows, valid: true"]
    if args.out:
        atomic_write_json(apa_mod.apa_to_json(array), args.out)
        doc["out"] = args.out
        lines.append(f"wrote {args.out}")
    _emit(args, lines, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser(argv):
    """The parser of every command, with a sub-parser for the first one
    `argv` names only: the top level takes no positional and no option
    with a value, so that is the one argparse runs."""
    commands = {
        "verify": "verify a design/CDF/APA file",
        "build": "build a balanced encoding matrix",
        "attack": "evaluate spoofing/oracle attacks on a matrix file",
        "params": "exact parameter arithmetic for t-(v,k,lambda)",
        "catalog": "browse bundled designs, CDFs, APAs, parameter rows",
        "apa": "generate and verify the bundled APA_1(2,3,11)",
    }
    parser = argparse.ArgumentParser(
        prog="authdesigns",
        description="Build and analyze authentication systems from "
                    "combinatorial designs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kwargs: None)
    for name, text in commands.items():
        sub.add_parser(name, help=text)
    name = next((arg for arg in argv if arg in commands), None)
    if name is None:
        return parser
    p = sub.choices[name] = argparse.ArgumentParser(prog=f"authdesigns {name}")
    p.add_argument("--out", metavar="PATH", help="output file path")
    p.add_argument("--budget", type=integer, metavar="N", help="work budget "
                   f"in elementary steps (default {ENV_VAR} or 10^8)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout format")
    if name in ("verify", "build", "attack"):
        p.add_argument("path")
    if name in ("verify", "build"):
        p.add_argument("--kind", choices=("design", "cdf", "apa")[
            :3 if name == "verify" else 2], required=True)
    if name in ("verify", "build", "params"):
        p.add_argument("--t", type=integer, default=None)
    if name == "params":
        p.add_argument("--v", type=integer, default=None)
        p.add_argument("--k", type=integer, default=None)
    if name in ("verify", "params"):
        p.add_argument("--lambda", dest="lambda_", type=integer, default=None)
    if name == "params":
        p.add_argument("--teirlinck", action="store_true",
                       help="evaluate the t-(v, t+1, (t+1)!^(2t+1)) family")
    elif name == "build":
        p.add_argument("--table", action="store_true",
                       help="also print the matrix as a labeled table")
    elif name == "attack":
        p.add_argument("--orders", default="0", help="comma list of orders "
                       "and a-b ranges, a <= b, no spaces, e.g. 0,1 or 0-2")
        p.add_argument("--model", default="classic", choices=(
            "classic", "oracle-offline", "oracle-online"))
    elif name == "catalog":
        p.add_argument("action", choices=("list", "show", "export"))
        p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        charge(0, args.budget)   # the budget's one check, for every command
        code = args.func(args)
        sys.stdout.flush()   # a closed stdout shows here, not at shutdown
        return code
    except BrokenPipeError:   # the reader went away, as `| head` does
        # nothing is wrong with the input; stdout goes to devnull so the
        # flush at shutdown prints nothing (the Python docs' SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StructuralError as exc:
        detail = f" offenders={show_int(exc.offenders[:3])}" if exc.offenders else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:      # unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except AuthDesignsError as exc:   # DomainError, ConstructionError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
