"""Command-line verification harness.

Subcommands:

    print-poly   evaluate and print one family member (or its monic mate)
    verify       run a verification sweep and write a JSON report
    gram         emit a weighted Gram matrix as CSV, checked against the norms
    connect      print a connection expansion as JSON

Exit codes: 0 all checks pass; 1 failures or crash; 2 erratum candidates
(a relation failing on every applicable sample); 64 usage error, an --out
that cannot be written included; 65 a config that cannot be read, is not
a JSON object, has a section or row of the wrong shape, or has a float or
true where a number belongs.  Rational inputs are given as 'num/den'
strings so exact checks never see floats.  Output is deterministic:
sorted keys, floats printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import jacobi1d, quadrature, simplex3d, sweeps, triangle2d
from .operators import as_tuple, summarize
from .ratpoly import as_rat
from .special import PoleHit

EX_OK = 0
EX_FAIL = 1
EX_ERRATUM = 2
EX_USAGE = 64
EX_CONFIG = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _jobs(text: str) -> int:
    """A process count from --jobs: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return jobs


def _output(path):
    """A context for writing to the file at `path`, or to stdout when path
    is None."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


@contextlib.contextmanager
def _checked_out(path):
    """Refuse (OSError) an --out that cannot be written, before the work
    that the context holds; append mode keeps an existing file until the
    output replaces it, and a file made here is removed again when that
    work raises, so a refused run leaves no empty --out behind."""
    made = bool(path) and not os.path.lexists(path)
    if path:
        open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if made:
            os.remove(path)
        raise


# --family -> its record.
_FAMILIES = {"jacobi": jacobi1d.FAMILY, "triangle": triangle2d.FAMILY, "simplex": simplex3d.FAMILY}


def build_parser() -> _Parser:
    parser = _Parser(prog="simplexpoly", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("print-poly", help="print one family member")
    pp.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    pp.add_argument("--index", required=True, help="e.g. 2 / 2,1 / 1,0,2")
    pp.add_argument("--params", required=True, help="comma-separated rationals")
    pp.add_argument("--monic", action="store_true", help="print the monic solution instead")

    pv = sub.add_parser("verify", help="run a verification sweep")
    pv.add_argument("--suite", choices=sweeps.SUITES, required=True)
    pv.add_argument("--config", default=None, help="sweep config JSON (default: shipped)")
    pv.add_argument("--out", default=None, help="write the JSON report here")
    pv.add_argument("--jobs", type=_jobs, default=None,
                    help="up to this many processes, this one included, at least 1; "
                         "one runs per 1,000 tasks and per CPU (default: the config's "
                         "\"jobs\", else 1)")

    pg = sub.add_parser("gram", help="emit a Gram matrix as CSV")
    pg.add_argument("--family", choices=("triangle", "simplex"), default="simplex")
    pg.add_argument("--N", dest="max_degree", type=int, required=True)
    pg.add_argument("--params", required=True)
    pg.add_argument("--out", default=None, help="CSV path (default: stdout)")

    pc = sub.add_parser("connect", help="print a connection expansion")
    pc.add_argument("--mode", choices=("alpha", "general"), required=True)
    pc.add_argument("--index", required=True)
    pc.add_argument("--params", required=True, help="six source parameters")
    pc.add_argument("--xi", default=None, help="target first parameter (mode=alpha)")
    pc.add_argument("--target", default=None, help="four target parameters (mode=general)")
    pc.add_argument("--out", default=None)
    return parser


#: Largest |g_ij / sqrt(h_i h_j) - delta_ij| that `gram` accepts (h: norms).
GRAM_BOUND = 1e-10

#: The largest --N that `gram` accepts, refused above before any array is
#: allocated.  At N = 24 the tetrahedron has 2925 members: `gram` took
#: 4.6 s and 103 MB peak RSS on a 2-core host, which CI holds under
#: 200 MB, and the worst figure of `scripts/orthogonality_scan.py`, on
#: both families, read 4.9e-13, about 200 times under GRAM_BOUND.  The
#: README lists the measurements at N = 16 to 28.
GRAM_MAX_DEGREE = 24

#: The largest total index degree that `print-poly` and `connect` accept,
#: refused above before any member or coefficient is built.  Measured on a
#: 2-core host with the parameters 1/3,1/2,0,1,-1/2,2: the costliest member
#: of a total degree D is the tetrahedron's 0,0,D, which took 1.2 s and
#: 54 MB peak RSS at D = 60, 2.9 s and 89 MB at 80 and 6.4 s and 155 MB at
#: 100; interval and triangle members of degree 100 took at most 0.3 s.
#: The general connection reassembles (n1+1)(n2+1)(n3+1) target members:
#: at total degree 24 it took 1.2 to 2.3 s and 65 MB, at 10,10,10 4.1 s
#: and 129 MB and at 12,12,12 13 s and 295 MB; the alpha one is cheaper.
PRINT_MAX_DEGREE = 80
CONNECT_MAX_DEGREE = 24


def _index(text: str, name: str, bound: int):
    """The --index of the family `name` as ints, as many as its degree-0
    index has, refused outside its index domain and above the total
    degree `bound`."""
    family = _FAMILIES[name]
    idx = as_tuple(text.split(","), len(family.indices(0)[0]), int)
    text = ",".join(map(str, idx))
    if not family.valid(idx):
        raise ValueError(f"index {text} is outside the {name} index domain")
    total = sum(family.degrees(*idx))
    if total > bound:
        raise ValueError(f"index {text} has total degree {total}, above the {bound} "
                         "that this command accepts")
    return idx


def exit_status(summary) -> int:
    """The exit status of a verified suite: EX_ERRATUM when a relation is
    an erratum candidate, else EX_FAIL when a check failed, else EX_OK."""
    if summary["erratum_candidates"]:
        return EX_ERRATUM
    return EX_FAIL if summary["totals"]["fail"] else EX_OK


def cmd_print_poly(args) -> int:
    family = _FAMILIES[args.family]
    if args.monic and family.monic is None:
        raise ValueError("--monic applies to triangle and simplex families")
    idx = _index(args.index, args.family, PRINT_MAX_DEGREE)
    params = family.check(args.params.split(","))
    poly = (family.monic_solution if args.monic else family.member)(idx, params)
    print(poly.to_text())
    return EX_OK


def cmd_verify(args) -> int:
    # Only reading the config and building its tasks can raise a config
    # error; a task that fails while it runs is a failing report.
    try:
        jobs, [(suite, tasks)] = sweeps.plan(args.config, [args.suite])
    except sweeps.CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    with _checked_out(args.out):
        reports = sweeps.run_suite_tasks(suite, tasks, jobs=args.jobs or jobs)
    summary = summarize(reports)
    if args.out:
        sweeps.write_report(args.out, reports, summary)
    for relation in sorted(summary["per_relation"]):
        counts = summary["per_relation"][relation]
        line = (
            f"{relation}: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['not_applicable']} n/a"
        )
        if relation in summary["erratum_candidates"]:
            line += "  [ERRATUM-CANDIDATE]"
        print(line)
    totals = summary["totals"]
    print(
        f"suite {args.suite}: {totals['pass']} pass, {totals['fail']} fail, "
        f"{totals['not_applicable']} n/a"
    )
    if summary["erratum_candidates"]:
        print("erratum candidates:", ", ".join(summary["erratum_candidates"]))
    return exit_status(summary)


def cmd_gram(args) -> int:
    if not 0 <= args.max_degree <= GRAM_MAX_DEGREE:
        raise ValueError(f"--N must be from 0 to {GRAM_MAX_DEGREE}, got {args.max_degree}")
    family = _FAMILIES[args.family]
    params = family.check(args.params.split(","))
    with _checked_out(args.out):
        idxs, gram = quadrature.collapsed_gram(family, args.max_degree, params)
    labels = [",".join(map(str, idx)) for idx in idxs]
    # Written a row at a time, each entry as format(v, ".12g") prints it.
    row_format = ";".join(["%.12g"] * len(labels))
    with _output(args.out) as fh:
        fh.write("index;" + ";".join(labels) + "\n")
        for label, row in zip(labels, gram):
            fh.write(label + ";" + row_format % tuple(row.tolist()) + "\n")
    worst, i, j = quadrature.gram_error(family, idxs, gram, params)
    if worst > GRAM_BOUND:
        print(f"simplexpoly: gram: |g / sqrt(h h) - delta| = {worst:.3e} at members "
              f"{labels[i]} and {labels[j]} exceeds the bound {GRAM_BOUND:.0e}", file=sys.stderr)
        return EX_FAIL
    return EX_OK


def _target(check, row):
    """check(row) on a connection's target row, its refusal prefixed "target "."""
    try:
        check(row)
    except ValueError as exc:
        raise ValueError(f"target {exc}") from exc


def cmd_connect(args) -> int:
    family = _FAMILIES["simplex"]
    idx = _index(args.index, "simplex", CONNECT_MAX_DEGREE)
    params = family.check(args.params.split(","))
    if args.mode == "alpha":
        if args.xi is None or args.target is not None:
            raise ValueError("mode=alpha takes --xi and no --target")
        target = as_rat(args.xi)
        connect, given = simplex3d.connect_alpha, (target,)
    else:
        if args.target is None or args.xi is not None:
            raise ValueError("mode=general takes --target and no --xi")
        target = given = as_tuple(args.target.split(","), 4)
        connect = simplex3d.connect_general
    row = given + params[len(given):]
    _target(family.check, row)
    with _checked_out(args.out):
        try:
            expansion = connect(idx, params, target)
        except PoleHit:  # where the weight is not integrable, refused as `gram` does
            family.integrable_axes(params)
            _target(family.integrable_axes, row)
            raise
        report = expansion.report("connect." + args.mode, params + given)
    payload = {
        "source_index": list(expansion.source_index),
        "source_params": [str(v) for v in expansion.source_params],
        "target_params": [str(v) for v in expansion.target_params],
        "terms": [
            {
                "index": list(t.index),
                "coeff": str(t.coeff),
                "pow_one_minus_x": t.pow_1x,
                "pow_one_minus_x_minus_y": t.pow_1xy,
            }
            for t in expansion.terms
        ],
        "reassembles_exactly": report.ok,
    }
    with _output(args.out) as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if not report.ok:
        print(f"simplexpoly: connect: reassembly - member = {report.difference}", file=sys.stderr)
    return EX_OK if report.ok else EX_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "print-poly": cmd_print_poly,
        "verify": cmd_verify,
        "gram": cmd_gram,
        "connect": cmd_connect,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OverflowError, OSError, PoleHit) as exc:
        # OverflowError: a parameter too large for a float, which `gram`
        # meets ("integer division result too large for a float" at
        # --params 10**400,0,0,0,0,0).  OSError: an --out that cannot be
        # written.  PoleHit: a pole in a monic prefactor or a connection
        # coefficient.
        print(f"simplexpoly: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
