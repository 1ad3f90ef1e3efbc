"""Command-line front end.

Five subcommands: approximate, verify, glue, limit, inspect. Summaries go
to stdout with six significant digits; certificate files carry the full
17-digit canonical form. Exit codes are part of the interface:

    0  success
    1  stdout was closed before the output was written
    2  the requested tolerance could not be certified
    3  a certificate failed verification or evidence contradicted a claim
    4  usage, expression, or file-format errors

Each command loads only what it runs. inspect and every parse failure load
records alone; the verify of an honest limit or tent member adds the one
checker, certificate, and limit adds limit too, all without numpy. A
spline's or a glued verify adds basis, quadrature, target and numpy (not
numpy.ma or numpy.polynomial); approximate adds approximate to that, and
glue adds approximate and glue. README's package layout gives their CPU.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import records
from .errors import (CertApproxError, CertificateParseError, ConfigurationError,
                     EvidenceContradictionError, ExpressionSyntaxError,
                     IllConditionedBasisError, NoProgressError,
                     ReconciliationFailureError, ToleranceViolated,
                     TopologyError)
from .records import FILE_SUFFIX, arithmetic

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_TOLERANCE = 2
EXIT_VERIFICATION = 3
EXIT_USAGE = 4

# the largest value of each size option, ten times or more any size a test,
# README example or benchmark workload uses; a larger one exits 4 unbuilt
SIZE_CAPS = {"knots": 10_000, "knots_per_patch": 1_000, "degree": 20_000,
             "max_terms": 50_000, "patches": 1_000}

_EPILOG = """\
target forms:
  builtin:NAME    one of exp, sinpi, linear, runge, tent_series(n)
  expr:TEXT       an expression in the grammar below (bare TEXT also works)
  data:PATH       two-column "x y" sample file, '#' comments allowed

expression grammar:
  expr    := term (('+' | '-') term)*
  term    := factor (('*' | '/') factor)*
  factor  := '-' factor | base ('^' factor)?
  base    := NUMBER | 'x' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
  FUNC    := sin | cos | exp | log | sqrt | abs

exit codes:
  0 success, 1 stdout closed, 2 tolerance not certified,
  3 verification failure, 4 usage or parse error
"""

# by method; chebyshev_pipeline reports the sup norm alone
_DEFAULT_NORM = {"orthonormal_probe": "l2", "gram_solve": "w12", "raw_probe": "w12",
                 "greedy": "l2"}
_METHODS = (*_DEFAULT_NORM, "chebyshev_pipeline")
# by basis kind; every other kind defaults to gram_solve
_DEFAULT_METHOD = {records.FOURIER_SINE: "orthonormal_probe",
                   records.CHEBYSHEV: "chebyshev_pipeline"}


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def _load_document(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CertificateParseError(f"cannot read {path}: {e.strerror}") from None
    doc = records.load_json(raw, path)
    if not isinstance(doc, dict):
        raise CertificateParseError(f"{path} does not hold an object")
    return doc


# ----------------------------------------------------------------------------
# approximate
# ----------------------------------------------------------------------------

def _make_family(args, f) -> records.BasisFamily:
    if args.basis == records.CUBIC_BSPLINE and args.knots is None:
        raise ConfigurationError("cubic_bspline needs --knots")
    m = args.knots + 2 if args.basis == records.CUBIC_BSPLINE else None
    domain = records.FIXED_DOMAINS.get(args.basis) or tuple(args.domain or f.domain)
    return records.BasisFamily(args.basis, domain, m)


def _element_pool(args, family: records.BasisFamily):
    if family.kind == records.CUBIC_BSPLINE:
        return family.interior_elements()
    if family.kind in (records.CHEBYSHEV, records.MONOMIAL):
        if args.degree is None:
            raise ConfigurationError(f"{family.kind} needs --degree")
        return [family.element(j) for j in range(family.min_index, args.degree + 1)]
    count = args.max_terms if args.max_terms is not None else 8
    return [family.element(j) for j in range(family.min_index, family.min_index + count)]


def cmd_approximate(args) -> int:
    approximate, target = arithmetic("approximate"), arithmetic("target")
    f = target.resolve_spec(args.target, tuple(args.domain) if args.domain else None)
    family = _make_family(args, f)
    method = args.method or _DEFAULT_METHOD.get(family.kind, "gram_solve")
    settings = approximate.ExtractionSettings(
        epsilon=args.eps, max_terms=512 if args.max_terms is None else args.max_terms)
    if method == "chebyshev_pipeline":
        if family.kind != records.CHEBYSHEV:
            raise ConfigurationError("chebyshev_pipeline needs --basis chebyshev")
        if args.degree is None:
            raise ConfigurationError("chebyshev_pipeline needs --degree")
        if args.norm not in (None, "sup"):
            raise ConfigurationError(
                "chebyshev_pipeline reports the sup norm; drop --norm")
        cert = approximate.approximate_chebyshev(f, args.degree, settings)
    elif method == "orthonormal_probe":
        if family.kind != records.FOURIER_SINE:
            raise ConfigurationError("orthonormal_probe needs --basis fourier_sine")
        if args.norm not in (None, "l2"):
            raise ConfigurationError("orthonormal_probe certifies the l2 norm")
        cert = approximate.approximate_orthonormal(f, family, settings)
    else:
        norm_kind = args.norm or _DEFAULT_NORM[method]
        if norm_kind == "sup":
            raise ConfigurationError(
                "probe methods integrate; the sup norm has no inner product")
        norm = records.NormTag(norm_kind, family.domain)
        pool = _element_pool(args, family)
        fn = {"gram_solve": approximate.approximate_gram,
              "raw_probe": approximate.approximate_raw_probe,
              "greedy": approximate.approximate_greedy}[method]
        cert = fn(f, pool, norm, settings)
    return _write_certificate(cert, args.out)


# ----------------------------------------------------------------------------
# verify and inspect
# ----------------------------------------------------------------------------

def _load_store(paths) -> dict | None:
    if not paths:
        return None
    store = {}
    for p in paths:
        doc = _load_document(p)
        if doc.get("kind") != "approximation":
            raise CertificateParseError(
                f"{p}: only approximation certificates can seed the store")
        cert = records.certificate_from_dict(doc)
        # filed under the digest it hashes to, so a stale file resolves nothing
        store[records.compute_digest(cert.to_dict())] = cert
    return store


def _print_report(report) -> int:
    print(f"digest: {report.digest}")
    print(f"reported error: {_fmt(report.reported_error)}")
    print(f"recomputed error: {_fmt(report.recomputed_error)}"
          f" (method: {report.method})")
    print(f"tolerance: {_fmt(report.tolerance)}")
    print(f"bound honored: {'yes' if report.bound_honored else 'no'}")
    print(f"structure: {'ok' if report.structural_ok else 'failed'}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def _verify_against_target(verify, cert, domain, args, store):
    """Rebuild the target a certificate names and verify the claim against it.

    Sampled targets only store a content hash, so verifying one needs
    --target data:PATH; the hash is then cross-checked by descriptor
    equality. A data: path named inside a document is never opened. A tent
    member ("series:tent:n=N", or "builtin:tent_series(N)" as either) is
    checked against records.tent_law, so an honest one loads no numpy. The law
    is built only when it has no more terms than the claim or is at most
    MAX_TENT_LEVEL deep; a deeper one FAILs the claim unbuilt, or mismatches.
    Returns None after reporting a target mismatch.
    """
    descriptor, spec = cert.target_descriptor, args.target
    depth = records.tent_depth(descriptor if spec is None else spec, "builtin:tent_series(", ")")
    if depth is None and spec is None:
        depth = records.tent_depth(descriptor, "series:tent:n=")
    if depth is not None:
        if depth < len(getattr(cert, "terms", ())) or depth <= records.MAX_TENT_LEVEL:
            got, f = records.tent_law(depth)
        else:
            got, f = f"series:tent:n={depth}", records.Unbuilt(
                records.over_budget(f"{records.TENT} element {depth}"))
    elif spec is None and descriptor.startswith(("data:", "samples:")):
        raise ConfigurationError(
            "this certificate names sampled data; pass --target data:PATH")
    else:
        f = arithmetic("target").resolve_spec(descriptor if spec is None else spec, domain)
        got = f.descriptor
    if got != descriptor:
        print(f"target mismatch: certificate names {descriptor}, got {got}")
        return None
    return verify(cert, f, store)


def _approximation_summary(cert) -> None:
    print(f"target: {cert.target_descriptor}")
    print(f"basis: {cert.basis.kind} on [{_fmt(cert.basis.domain[0])},"
          f" {_fmt(cert.basis.domain[1])}]")
    print(f"norm: {cert.norm.kind}")
    print(f"terms: {len(cert.terms)}")
    print(f"method: {cert.construction.method}")
    print(f"stopping: {cert.construction.stopping}")
    print(f"reported error: {_fmt(cert.reported_error)}")
    print(f"tolerance: {_fmt(cert.tolerance)}")
    print(f"genealogy: {len(cert.genealogy)} entries")
    print(f"digest: {cert.digest}")


def _glued_summary(cert) -> None:
    print(f"target: {cert.target_descriptor}")
    print(f"patches: {cert.cover.m} on [{_fmt(cert.cover.domain[0])},"
          f" {_fmt(cert.cover.domain[1])}]")
    for lc in cert.locals:
        print(f"  patch {lc.patch_index}: [{_fmt(lc.patch[0])},"
              f" {_fmt(lc.patch[1])}] {len(lc.cert.terms)} terms,"
              f" error {_fmt(lc.cert.reported_error)}")
    adjusted = [r.pair for r in cert.records if r.adjusted]
    print(f"reconciled pairs: {adjusted if adjusted else 'none'}")
    print(f"reported error: {_fmt(cert.reported_error)}")
    print(f"tolerance: {_fmt(cert.tolerance)}")
    print(f"digest: {cert.digest}")


def _limit_summary(cert) -> None:
    print(f"sequence: {cert.sequence}")
    print(f"anchor depth: {cert.n_star}")
    print(f"members: {len(cert.members)}")
    print(f"ladder: {len(cert.ladder)} rungs")
    for rec in cert.ladder:
        print(f"  pair {rec.pair}: gap {rec.measured} < {rec.bound}")
    print(f"tail bound: {cert.tail_bound} (budget {cert.tail_budget})")
    print(f"reported error: {_fmt(cert.reported_error)}")
    print(f"tolerance: {_fmt(cert.tolerance)}")
    print(f"genealogy: {len(cert.genealogy)} entries")
    print(f"digest: {cert.digest}")


# kind -> (verify, summary); a verifier is looked up on its module when
# called, so wrappers installed there (tracing) apply
_KINDS = {
    "approximation": (lambda cert, args, store: _verify_against_target(
        arithmetic("certificate").verify, cert, cert.norm.domain, args, store),
        _approximation_summary),
    "glued": (lambda cert, args, store: _verify_against_target(
        arithmetic("certificate").verify_glued, cert, cert.cover.domain, args, store),
        _glued_summary),
    "limit": (lambda cert, args, store: arithmetic("certificate").verify_limit(cert, store),
              _limit_summary),
}


def cmd_verify(args) -> int:
    doc = _load_document(args.file)
    store = _load_store(args.store)
    cert = records.parse(doc)
    # parsing reads only the fields it knows; the digest seals only those
    if records.canonical_dumps(doc) != records.serialize(cert):
        raise CertificateParseError(f"{args.file} holds what its certificate does not seal")
    report = _KINDS[cert.KIND][0](cert, args, store)
    if report is None:
        return EXIT_VERIFICATION
    print(f"kind: {cert.KIND}")
    return _print_report(report)


def _summarize(cert) -> None:
    print(f"kind: {cert.KIND}")
    _KINDS[cert.KIND][1](cert)


def cmd_inspect(args) -> int:
    _summarize(records.parse(_load_document(args.file)))
    return EXIT_OK


def _write_certificate(cert, path: str) -> int:
    """Write a freshly built certificate, then print what inspect would."""
    try:
        with open(path, "wb") as fh:
            fh.write(records.serialize(cert))
    except OSError as e:
        raise ConfigurationError(f"cannot write {path}: {e.strerror}") from None
    _summarize(cert)
    print(f"wrote: {path}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# glue and limit
# ----------------------------------------------------------------------------

def cmd_glue(args) -> int:
    glue, target = arithmetic("glue"), arithmetic("target")
    f = target.resolve_spec(args.target, tuple(args.domain) if args.domain else None)
    domain = tuple(args.domain) if args.domain else f.domain
    cover = glue.make_cover(domain, args.patches, args.overlap)
    settings = arithmetic("approximate").ExtractionSettings(epsilon=0.5 * args.eps)
    locals_ = []
    for i, patch in enumerate(cover.patches):
        fam = glue.local_bspline_family(patch, args.knots_per_patch)
        locals_.append(glue.extract_local(f, i, patch, fam, settings))
    return _write_certificate(glue.glue(f, locals_, cover, args.eps), args.out)


def cmd_limit(args) -> int:
    limit = arithmetic("limit")
    return _write_certificate(limit.transfer(limit.tent_sequence(), args.eps), args.out)


# ----------------------------------------------------------------------------
# parser assembly and dispatch
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certapprox",
        description="finite-rank approximations with re-checkable certificates",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    pa = sub.add_parser("approximate", help="extract and certify an approximant")
    pa.add_argument("--target", required=True)
    pa.add_argument("--basis", required=True,
                    choices=records.KINDS)
    pa.add_argument("--eps", type=float, required=True,
                    help="tolerance the certificate must beat")
    pa.add_argument("--method", choices=_METHODS)
    pa.add_argument("--norm", choices=("l2", "w12", "sup"))
    pa.add_argument("--knots", type=int,
                    help="distinct knots for cubic_bspline; the family gains"
                         " two boundary functions beyond this count")
    pa.add_argument("--degree", type=int)
    pa.add_argument("--max-terms", type=int)
    pa.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    pa.add_argument("--out", default="approximation" + FILE_SUFFIX)
    pa.set_defaults(func=cmd_approximate)

    pv = sub.add_parser("verify", help="re-check a certificate file")
    pv.add_argument("file")
    pv.add_argument("--target",
                    help="override target resolution (required for data: targets)")
    pv.add_argument("--store", action="append", metavar="FILE",
                    help="extra certificate files for genealogy resolution")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("glue", help="cover the domain and glue local certificates")
    pg.add_argument("--target", required=True)
    pg.add_argument("--patches", type=int, required=True)
    pg.add_argument("--eps", type=float, required=True)
    pg.add_argument("--overlap", type=float,
                    default=records.DEFAULT_OVERLAP_FRACTION)
    pg.add_argument("--knots-per-patch", type=int, default=8)
    pg.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    pg.add_argument("--out", default="glued" + FILE_SUFFIX)
    pg.set_defaults(func=cmd_glue)

    pl = sub.add_parser("limit", help="transfer the tent sequence to its limit")
    pl.add_argument("--eps", type=float, required=True)
    pl.add_argument("--out", default="limit" + FILE_SUFFIX)
    pl.set_defaults(func=cmd_limit)

    pi = sub.add_parser("inspect", help="print a certificate without verifying")
    pi.add_argument("file")
    pi.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    if args.command is None:
        parser.print_usage(file=sys.stderr)
        return EXIT_USAGE
    try:
        for name, cap in SIZE_CAPS.items():
            if (value := getattr(args, name, None) or 0) > cap:
                flag = "--" + name.replace("_", "-")
                raise ConfigurationError(f"{flag} {value} is over its cap of {cap}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # as in the Python docs' "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except ExpressionSyntaxError as e:
        print(f"expression error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TopologyError as e:
        print(f"cover error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ToleranceViolated, IllConditionedBasisError, NoProgressError,
            ReconciliationFailureError) as e:
        print(f"tolerance not certified: {e}", file=sys.stderr)
        return EXIT_TOLERANCE
    except EvidenceContradictionError as e:
        print(f"evidence contradiction: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    except CertApproxError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
