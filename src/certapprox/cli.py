"""Command-line front end.

Five subcommands: approximate, verify, glue, limit, inspect. Summaries go
to stdout with six significant digits; certificate files carry the full
17-digit canonical form. Exit codes are part of the interface:

    0  success
    2  the requested tolerance could not be certified
    3  a certificate failed verification or evidence contradicted a claim
    4  usage, expression, or file-format errors
"""

from __future__ import annotations

import argparse
import sys

from . import basis, certificate, glue as glue_mod, limit as limit_mod, quadrature, target
from .approximate import (ExtractionSettings, approximate_chebyshev,
                          approximate_gram, approximate_greedy,
                          approximate_orthonormal, approximate_raw_probe)
from .certificate import FILE_SUFFIX
from .errors import (CertApproxError, CertificateParseError, ConfigurationError,
                     EvidenceContradictionError, ExpressionSyntaxError,
                     IllConditionedBasisError, NoProgressError,
                     ReconciliationFailureError, ToleranceViolated,
                     TopologyError)

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_VERIFICATION = 3
EXIT_USAGE = 4

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
  0 success, 2 tolerance not certified, 3 verification failure,
  4 usage or parse error
"""

_METHODS = ("orthonormal_probe", "gram_solve", "raw_probe", "greedy",
            "chebyshev_pipeline")
_DEFAULT_METHOD = {
    basis.FOURIER_SINE: "orthonormal_probe",
    basis.CUBIC_BSPLINE: "gram_solve",
    basis.CHEBYSHEV: "chebyshev_pipeline",
    basis.MONOMIAL: "gram_solve",
    basis.TENT: "gram_solve",
}
_DEFAULT_NORM = {
    "orthonormal_probe": "l2",
    "gram_solve": "w12",
    "raw_probe": "w12",
    "greedy": "l2",
}


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def _load_document(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CertificateParseError(f"cannot read {path}: {e.strerror}") from None
    doc = certificate.load_json(raw, path)
    if not isinstance(doc, dict):
        raise CertificateParseError(f"{path} does not hold an object")
    return doc


# ----------------------------------------------------------------------------
# approximate
# ----------------------------------------------------------------------------

def _make_family(args, f) -> basis.BasisFamily:
    domain = tuple(args.domain) if args.domain else f.domain
    if args.basis == basis.FOURIER_SINE:
        return basis.fourier_sine_family()
    if args.basis == basis.TENT:
        return basis.tent_family()
    if args.basis == basis.CHEBYSHEV:
        return basis.chebyshev_family()
    if args.basis == basis.MONOMIAL:
        return basis.monomial_family(domain)
    if args.basis == basis.CUBIC_BSPLINE:
        if args.knots is None:
            raise ConfigurationError("cubic_bspline needs --knots")
        return basis.cubic_bspline_family(args.knots + 2, domain)
    raise ConfigurationError(f"unknown basis {args.basis!r}")


def _element_pool(args, family: basis.BasisFamily):
    if family.kind == basis.CUBIC_BSPLINE:
        return family.interior_elements()
    if family.kind in (basis.CHEBYSHEV, basis.MONOMIAL):
        if args.degree is None:
            raise ConfigurationError(f"{family.kind} needs --degree")
        return [family.element(j) for j in range(family.min_index, args.degree + 1)]
    count = args.max_terms if args.max_terms is not None else 8
    lo = family.min_index
    return [family.element(j) for j in range(lo, lo + count)]


def cmd_approximate(args) -> int:
    f = target.resolve_spec(args.target,
                            tuple(args.domain) if args.domain else None)
    family = _make_family(args, f)
    method = args.method or _DEFAULT_METHOD[family.kind]
    settings = ExtractionSettings(
        epsilon=args.eps, max_terms=512 if args.max_terms is None else args.max_terms)
    if method == "chebyshev_pipeline":
        if family.kind != basis.CHEBYSHEV:
            raise ConfigurationError("chebyshev_pipeline needs --basis chebyshev")
        if args.degree is None:
            raise ConfigurationError("chebyshev_pipeline needs --degree")
        if args.norm not in (None, "sup"):
            raise ConfigurationError(
                "chebyshev_pipeline reports the sup norm; drop --norm")
        cert = approximate_chebyshev(f, args.degree, settings)
    elif method == "orthonormal_probe":
        if family.kind != basis.FOURIER_SINE:
            raise ConfigurationError("orthonormal_probe needs --basis fourier_sine")
        if args.norm not in (None, "l2"):
            raise ConfigurationError("orthonormal_probe certifies the l2 norm")
        cert = approximate_orthonormal(f, family, settings)
    else:
        norm_kind = args.norm or _DEFAULT_NORM[method]
        if norm_kind == "sup":
            raise ConfigurationError(
                "probe methods integrate; the sup norm has no inner product")
        norm = quadrature.NormTag(norm_kind, family.domain)
        pool = _element_pool(args, family)
        fn = {"gram_solve": approximate_gram, "raw_probe": approximate_raw_probe,
              "greedy": approximate_greedy}[method]
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
        cert = certificate.certificate_from_dict(doc)
        store[cert.digest] = cert
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
    equality. A data: path named inside a document is never opened.
    Returns None after reporting a target mismatch.
    """
    descriptor = cert.target_descriptor
    if args.target is not None:
        f = target.resolve_spec(args.target, domain)
    elif (depth := target.tent_depth(descriptor, "series:tent:n=")) is not None:
        f = target.tent_partial_sum(depth)
    elif descriptor.startswith(("data:", "samples:")):
        raise ConfigurationError(
            "this certificate names sampled data; pass --target data:PATH")
    else:
        f = target.resolve_spec(descriptor, domain)
    if f.descriptor != descriptor:
        print(f"target mismatch: certificate names {descriptor}, got {f.descriptor}")
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
    print(f"proxy depth: {cert.proxy_depth}")
    print(f"reported error: {_fmt(cert.reported_error)}")
    print(f"tolerance: {_fmt(cert.tolerance)}")
    print(f"genealogy: {len(cert.genealogy)} entries")
    print(f"digest: {cert.digest}")


# kind -> (parse, verify, summary). The library functions are looked up on
# their modules at call time, so wrappers installed there (tracing) apply.
_KINDS = {
    "approximation": (
        lambda doc: certificate.certificate_from_dict(doc),
        lambda cert, args, store: _verify_against_target(
            certificate.verify, cert, cert.norm.domain, args, store),
        _approximation_summary),
    "glued": (
        lambda doc: glue_mod.glued_from_dict(doc),
        lambda cert, args, store: _verify_against_target(
            glue_mod.verify_glued, cert, cert.cover.domain, args, store),
        _glued_summary),
    "limit": (
        lambda doc: limit_mod.limit_from_dict(doc),
        lambda cert, args, store: limit_mod.verify_limit(cert, store),
        _limit_summary),
}


def _kind_entry(doc: dict):
    """The document's kind and its (parse, verify, summary) entry."""
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CertificateParseError(f"unknown certificate kind {kind!r}")
    return (kind, *_KINDS[kind])


def cmd_verify(args) -> int:
    doc = _load_document(args.file)
    store = _load_store(args.store)
    kind, parse, verify, _ = _kind_entry(doc)
    cert = parse(doc)
    # parsing reads only the fields it knows; the digest seals only those
    if certificate.canonical_dumps(doc) != certificate.serialize(cert):
        raise CertificateParseError(f"{args.file} holds what its certificate does not seal")
    report = verify(cert, args, store)
    if report is None:
        return EXIT_VERIFICATION
    print(f"kind: {kind}")
    return _print_report(report)


def _summarize(kind: str, cert) -> None:
    print(f"kind: {kind}")
    _KINDS[kind][2](cert)


def cmd_inspect(args) -> int:
    doc = _load_document(args.file)
    kind, parse, _, _ = _kind_entry(doc)
    _summarize(kind, parse(doc))
    return EXIT_OK


def _write_certificate(cert, path: str) -> int:
    """Write a freshly built certificate, then print what inspect would."""
    doc = cert.to_dict()
    try:
        with open(path, "wb") as fh:
            fh.write(certificate.canonical_dumps(doc))
    except OSError as e:
        raise ConfigurationError(f"cannot write {path}: {e.strerror}") from None
    _summarize(doc["kind"], cert)
    print(f"wrote: {path}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# glue and limit
# ----------------------------------------------------------------------------

def cmd_glue(args) -> int:
    f = target.resolve_spec(args.target,
                            tuple(args.domain) if args.domain else None)
    domain = tuple(args.domain) if args.domain else f.domain
    cover = glue_mod.make_cover(domain, args.patches, args.overlap)
    pou = glue_mod.build_pou(cover)
    settings = ExtractionSettings(epsilon=0.5 * args.eps)
    locals_ = []
    for i, patch in enumerate(cover.patches):
        fam = glue_mod.local_bspline_family(patch, args.knots_per_patch)
        locals_.append(glue_mod.extract_local(f, i, patch, fam, settings))
    return _write_certificate(glue_mod.glue(f, locals_, pou, args.eps), args.out)


def cmd_limit(args) -> int:
    if args.sequence != limit_mod.SEQUENCE_TENT:
        raise ConfigurationError(f"unknown sequence {args.sequence!r}")
    seq = limit_mod.tent_sequence()
    return _write_certificate(limit_mod.transfer(seq, args.eps), args.out)


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
                    choices=(basis.CHEBYSHEV, basis.FOURIER_SINE, basis.MONOMIAL,
                             basis.TENT, basis.CUBIC_BSPLINE))
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
                    default=glue_mod.DEFAULT_OVERLAP_FRACTION)
    pg.add_argument("--knots-per-patch", type=int, default=8)
    pg.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"))
    pg.add_argument("--out", default="glued" + FILE_SUFFIX)
    pg.set_defaults(func=cmd_glue)

    pl = sub.add_parser("limit", help="transfer a certificate sequence to its limit")
    pl.add_argument("--sequence", default=limit_mod.SEQUENCE_TENT)
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
        return args.func(args)
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
