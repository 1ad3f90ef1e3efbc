import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from certapprox import cli
from certapprox.certificate import (FILE_SUFFIX, certificate_from_dict, compute_digest,
                                    serialize, verify)
from certapprox.errors import CertificateParseError
from certapprox.glue import glued_from_dict, verify_glued
from certapprox.limit import limit_from_dict, tent_sequence, transfer, verify_limit
from certapprox.target import from_builtin


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("certs")


# each fixture build's stdout, by fixture name
BUILD_STDOUT = {}


def _build(name, argv, workdir):
    out = workdir / (name + FILE_SUFFIX)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(argv + ["--out", str(out)]) == 0
    BUILD_STDOUT[name] = printed.getvalue()
    return out


@pytest.fixture(scope="module")
def spline_cert(workdir):
    return _build("spline", ["approximate", "--target", "builtin:sinpi",
                             "--basis", "cubic_bspline", "--knots", "10",
                             "--eps", "1e-3"], workdir)


@pytest.fixture(scope="module")
def glued_cert(workdir):
    return _build("glued", ["glue", "--target", "builtin:sinpi", "--patches", "3",
                            "--eps", "1e-2"], workdir)


@pytest.fixture(scope="module")
def limit_cert(workdir):
    return _build("limit", ["limit", "--eps", "0.125"], workdir)


# ----------------------------------------------------------------------------
# dispatch and usage errors
# ----------------------------------------------------------------------------

def test_no_command_is_a_usage_error():
    assert cli.main([]) == 4


def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "expression grammar" in out


def test_unknown_subcommand():
    assert cli.main(["transmogrify"]) == 4


def test_missing_required_flag():
    assert cli.main(["approximate", "--target", "builtin:sinpi",
                     "--basis", "fourier_sine"]) == 4


def test_bad_basis_choice():
    assert cli.main(["approximate", "--target", "builtin:sinpi",
                     "--basis", "wavelet", "--eps", "1e-2"]) == 4


def test_spline_family_needs_knots(workdir):
    code = cli.main(["approximate", "--target", "builtin:sinpi",
                     "--basis", "cubic_bspline", "--eps", "1e-3",
                     "--out", str(workdir / "x.json")])
    assert code == 4


@pytest.mark.parametrize("count", ["0", "-1"])
def test_max_terms_must_be_positive(count, workdir, capsys):
    out = workdir / f"max-terms{count}.json"
    assert cli.main(["approximate", "--target", "builtin:sinpi", "--basis",
                     "fourier_sine", "--eps", "1e-2", "--max-terms", count,
                     "--out", str(out)]) == 4
    assert "max_terms must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_expression_errors_point_at_the_offset(capsys):
    code = cli.main(["approximate", "--target", "expr:sin(pi*", "--basis",
                     "fourier_sine", "--eps", "1e-2"])
    assert code == 4
    assert "expression error" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# approximate
# ----------------------------------------------------------------------------

def test_spline_run_reports_the_frozen_error(spline_cert, capsys):
    code = cli.main(["inspect", str(spline_cert)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.000559534" in out
    assert "kind: approximation" in out
    assert "method: gram_solve" in out


def test_chebyshev_run_summary(workdir, capsys):
    out_path = workdir / ("cheb" + FILE_SUFFIX)
    code = cli.main(["approximate", "--target", "builtin:exp", "--basis",
                     "chebyshev", "--degree", "4", "--eps", "5e-3",
                     "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "terms: 5" in out
    assert "0.00118263" in out
    assert f"wrote: {out_path}" in out


def test_unreachable_tolerance_exits_two(workdir):
    code = cli.main(["approximate", "--target", "builtin:exp", "--basis",
                     "chebyshev", "--degree", "1", "--eps", "1e-4",
                     "--out", str(workdir / "never.json")])
    assert code == 2
    assert not (workdir / "never.json").exists()


def test_expression_target_round_trip(workdir, capsys):
    out_path = workdir / ("sq" + FILE_SUFFIX)
    code = cli.main(["approximate", "--target", "x^2", "--basis", "monomial",
                     "--degree", "3", "--eps", "1e-6", "--domain", "0", "1",
                     "--method", "gram_solve", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    assert cli.main(["verify", str(out_path)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_sup_norm_probe_is_rejected(workdir, capsys):
    code = cli.main(["approximate", "--target", "builtin:sinpi", "--basis",
                     "fourier_sine", "--method", "raw_probe", "--norm", "sup",
                     "--eps", "0.5", "--out", str(workdir / "sup.json")])
    assert code == 4
    assert "sup norm" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def test_verify_passes_and_names_the_method(spline_cert, capsys):
    assert cli.main(["verify", str(spline_cert)]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "composite_gl16x" in out


def test_tampered_file_fails_with_exit_three(spline_cert, workdir, capsys):
    doc = json.loads(spline_cert.read_text())
    doc["reported_error"] = doc["reported_error"] / 10.0
    bad = workdir / ("tampered" + FILE_SUFFIX)
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "structure: failed" in out


def test_target_override_mismatch(spline_cert, capsys):
    assert cli.main(["verify", str(spline_cert),
                     "--target", "builtin:exp"]) == 3
    assert "target mismatch" in capsys.readouterr().out


def test_verify_missing_file():
    assert cli.main(["verify", "/nonexistent/path.json"]) == 4


def test_verify_rejects_foreign_documents(workdir):
    stray = workdir / "stray.json"
    stray.write_text('{"kind": "poem"}')
    assert cli.main(["verify", str(stray)]) == 4
    stray.write_text("not json at all")
    assert cli.main(["verify", str(stray)]) == 4


def test_store_files_must_hold_approximations(spline_cert, glued_cert):
    assert cli.main(["verify", str(spline_cert),
                     "--store", str(glued_cert)]) == 4
    assert cli.main(["verify", str(spline_cert),
                     "--store", str(spline_cert)]) == 0


DATA = Path(__file__).resolve().parent / "data"


def test_sine_certificate_from_the_direct_sum_still_verifies(capsys):
    # 225 sine probes of x at eps=0.03, written when sine series were still
    # summed term by term; the recurrence re-measures the same error
    path = DATA / ("sine_probe_linear" + FILE_SUFFIX)
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "recomputed error: 0.0299772" in out
    assert "verdict: PASS" in out


# ----------------------------------------------------------------------------
# sampled targets
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sample_cert(workdir):
    data = workdir / "ramp.dat"
    data.write_text("# identity samples\n0.0 0.0\n0.5 0.5\n1.0 1.0\n")
    return data, _build("ramp", ["approximate", "--target", f"data:{data}",
                                 "--basis", "fourier_sine", "--eps", "0.2"], workdir)


def test_sampled_target_certifies(sample_cert):
    _, out = sample_cert
    doc = json.loads(out.read_text())
    assert doc["target"].startswith("data:sha256:")


def test_sampled_verify_needs_the_data_back(sample_cert, capsys):
    data, out = sample_cert
    assert cli.main(["verify", str(out)]) == 4
    assert "data:PATH" in capsys.readouterr().err
    assert cli.main(["verify", str(out), "--target", f"data:{data}"]) == 0


def test_sampled_verify_rejects_swapped_data(sample_cert, workdir, capsys):
    _, out = sample_cert
    other = workdir / "other.dat"
    other.write_text("0.0 0.0\n0.5 0.9\n1.0 1.0\n")
    assert cli.main(["verify", str(out), "--target", f"data:{other}"]) == 3
    assert "target mismatch" in capsys.readouterr().out


# ----------------------------------------------------------------------------
# glue
# ----------------------------------------------------------------------------

def test_glue_summary_and_verify(glued_cert, capsys):
    assert cli.main(["verify", str(glued_cert)]) == 0
    out = capsys.readouterr().out
    assert "kind: glued" in out
    assert "verdict: PASS" in out


def test_glue_inspect_lists_patches(glued_cert, capsys):
    assert cli.main(["inspect", str(glued_cert)]) == 0
    out = capsys.readouterr().out
    assert "patches: 3" in out
    assert "patch 0:" in out and "patch 2:" in out
    assert "reconciled pairs: none" in out


def test_glue_rejects_an_oversized_overlap(workdir):
    assert cli.main(["glue", "--target", "builtin:sinpi", "--patches", "3",
                     "--eps", "1e-2", "--overlap", "0.9",
                     "--out", str(workdir / "never.json")]) == 4


def test_glued_tamper_fails(glued_cert, workdir, capsys):
    def halve(doc):
        doc["reported_error"] /= 2
    bad = _resealed(glued_cert, halve, workdir / ("badglue" + FILE_SUFFIX))
    assert cli.main(["verify", str(bad)]) == 3
    assert "verdict: FAIL" in capsys.readouterr().out


# ----------------------------------------------------------------------------
# limit
# ----------------------------------------------------------------------------

def test_limit_summary(limit_cert, capsys):
    assert cli.main(["inspect", str(limit_cert)]) == 0
    out = capsys.readouterr().out
    assert "anchor depth: 5" in out
    assert "ladder: 8 rungs" in out
    assert "tail bound: 1/32" in out


def test_limit_verify(limit_cert, capsys):
    assert cli.main(["verify", str(limit_cert)]) == 0
    out = capsys.readouterr().out
    assert "kind: limit" in out
    assert "verdict: PASS" in out


def test_limit_tamper_fails(limit_cert, workdir):
    doc = json.loads(limit_cert.read_text())
    doc["ladder"][0]["measured"] = "1/999999"
    bad = workdir / ("badlimit" + FILE_SUFFIX)
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad)]) == 3


def test_limit_unknown_sequence(workdir):
    assert cli.main(["limit", "--sequence", "zeta", "--eps", "0.1",
                     "--out", str(workdir / "never.json")]) == 4


@pytest.mark.parametrize("eps", ["2.0", "nan", "inf"])
def test_limit_tolerance_gate(workdir, eps):
    assert cli.main(["limit", f"--eps={eps}",
                     "--out", str(workdir / "never.json")]) == 4


# ----------------------------------------------------------------------------
# golden corpus: document bytes, digests and CLI output of the fixtures
# ----------------------------------------------------------------------------

GOLDEN = {
    "spline": {
        "digest": "6c9fd441927111574c66bd5ed076d44922188a1301292f54c6051fc8a92e9260",
        "sha256": "38309ed784bf8f660201b03ab8cc415735ec73b2d416f6ea8587a3124242cd34",
        "verify": (
            "kind: approximation\n"
            "digest: 6c9fd441927111574c66bd5ed076d44922188a1301292f54c6051fc8a92e9260\n"
            "reported error: 0.000559534\n"
            "recomputed error: 0.000559534 (method: composite_gl16x36)\n"
            "tolerance: 0.001\n"
            "bound honored: yes\n"
            "structure: ok\n"
            "verdict: PASS\n"),
        "inspect": (
            "kind: approximation\n"
            "target: builtin:sinpi\n"
            "basis: cubic_bspline on [0, 1]\n"
            "norm: w12\n"
            "terms: 10\n"
            "method: gram_solve\n"
            "stopping: cholesky solve over 10 elements; condition estimate 1.232093e+01\n"
            "reported error: 0.000559534\n"
            "tolerance: 0.001\n"
            "genealogy: 0 entries\n"
            "digest: 6c9fd441927111574c66bd5ed076d44922188a1301292f54c6051fc8a92e9260\n"),
    },
    "glued": {
        "digest": "935ac1d009878f9f0a8c9af7251eaa61b2a7bd2a78cf53c13fc636a3f336defe",
        "sha256": "575d76c1648d2870c756e12e5b870464df9fb95ae07d092cddd7fc0869c91f79",
        "verify": (
            "kind: glued\n"
            "digest: 935ac1d009878f9f0a8c9af7251eaa61b2a7bd2a78cf53c13fc636a3f336defe\n"
            "reported error: 0.000447257\n"
            "recomputed error: 0.000447257 (method: compositional_w12)\n"
            "tolerance: 0.01\n"
            "bound honored: yes\n"
            "structure: ok\n"
            "verdict: PASS\n"),
        "inspect": (
            "kind: glued\n"
            "target: builtin:sinpi\n"
            "patches: 3 on [0, 1]\n"
            "  patch 0: [0, 0.366667] 10 terms, error 2.67098e-05\n"
            "  patch 1: [0.3, 0.7] 10 terms, error 5.94362e-05\n"
            "  patch 2: [0.633333, 1] 10 terms, error 2.67098e-05\n"
            "reconciled pairs: none\n"
            "reported error: 0.000447257\n"
            "tolerance: 0.01\n"
            "digest: 935ac1d009878f9f0a8c9af7251eaa61b2a7bd2a78cf53c13fc636a3f336defe\n"),
    },
    "limit": {
        "digest": "45523f9c90ee27273895ac5180faab8e08c6bc079ab53e7bea7510d9897b7475",
        "sha256": "00f21a2c4840aba23aff5a72c71e94d8c18fc40cad7ab3bb346139afe2fc7e44",
        "verify": (
            "kind: limit\n"
            "digest: 45523f9c90ee27273895ac5180faab8e08c6bc079ab53e7bea7510d9897b7475\n"
            "reported error: 0.03125\n"
            "recomputed error: 0.03125 (method: exact_dyadic_tail)\n"
            "tolerance: 0.125\n"
            "bound honored: yes\n"
            "structure: ok\n"
            "verdict: PASS\n"),
        "inspect": (
            "kind: limit\n"
            "sequence: tent\n"
            "anchor depth: 5\n"
            "members: 5\n"
            "ladder: 8 rungs\n"
            "  pair (5, 6): gap 1/64 < 1/16\n"
            "  pair (5, 7): gap 1/64 < 1/16\n"
            "  pair (5, 8): gap 5/256 < 1/16\n"
            "  pair (5, 9): gap 5/256 < 1/16\n"
            "  pair (5, 10): gap 21/1024 < 1/16\n"
            "  pair (5, 11): gap 21/1024 < 1/16\n"
            "  pair (5, 12): gap 85/4096 < 1/16\n"
            "  pair (5, 13): gap 85/4096 < 1/16\n"
            "tail bound: 1/32 (budget 1/16)\n"
            "proxy depth: 17\n"
            "reported error: 0.03125\n"
            "tolerance: 0.125\n"
            "genealogy: 14 entries\n"
            "digest: 45523f9c90ee27273895ac5180faab8e08c6bc079ab53e7bea7510d9897b7475\n"),
    },
    "ramp": {
        "digest": "0f30dee836de6907f018c89166900ef73ef7c259b5b84ed30eea6c284880c9cc",
        "sha256": "15cef3160b0217d18716856fe9ddb40af99816850c29fc4f14e729722c61c89a",
        "verify": (
            "kind: approximation\n"
            "digest: 0f30dee836de6907f018c89166900ef73ef7c259b5b84ed30eea6c284880c9cc\n"
            "reported error: 0.191686\n"
            "recomputed error: 0.191686 (method: composite_gl16x24)\n"
            "tolerance: 0.2\n"
            "bound honored: yes\n"
            "structure: ok\n"
            "verdict: PASS\n"),
        "inspect": (
            "kind: approximation\n"
            "target: data:sha256:54bb33ea91288a73a1aaea9995443936944b1d5b1818813bfa393d2d638455b4\n"
            "basis: fourier_sine on [0, 1]\n"
            "norm: l2\n"
            "terms: 5\n"
            "method: orthonormal_probe\n"
            "stopping: parseval remainder 1.916865e-01 at N=5; direct recheck 1.916865e-01\n"
            "reported error: 0.191686\n"
            "tolerance: 0.2\n"
            "genealogy: 0 entries\n"
            "digest: 0f30dee836de6907f018c89166900ef73ef7c259b5b84ed30eea6c284880c9cc\n"),
    },
}


def test_golden_corpus(spline_cert, glued_cert, limit_cert, sample_cert, capsys):
    data, ramp_cert = sample_cert
    docs = {"spline": (spline_cert, []), "glued": (glued_cert, []),
            "limit": (limit_cert, []),
            "ramp": (ramp_cert, ["--target", f"data:{data}"])}
    for name, (path, extra) in docs.items():
        want = GOLDEN[name]
        raw = path.read_bytes()
        assert json.loads(raw)["digest"] == want["digest"], name
        assert hashlib.sha256(raw).hexdigest() == want["sha256"], name
        # a build prints what inspect prints, then where it wrote
        assert BUILD_STDOUT[name] == want["inspect"] + f"wrote: {path}\n", name
        capsys.readouterr()
        assert cli.main(["verify", str(path)] + extra) == 0
        assert capsys.readouterr().out == want["verify"], name
        assert cli.main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == want["inspect"], name


SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code, tmp_path, **env):
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


_BUILD_SOLVED = """
import json
from certapprox import cli
builds = {"spline": ["approximate", "--target", "builtin:sinpi", "--basis",
                     "cubic_bspline", "--knots", "10", "--eps", "1e-3"],
          "glued": ["glue", "--target", "builtin:sinpi", "--patches", "3",
                    "--eps", "1e-2"]}
digests = {}
for name, args in builds.items():
    assert cli.main(args + ["--out", name + ".json"]) == 0
    with open(name + ".json") as fh:
        digests[name] = json.load(fh)["digest"]
print(json.dumps(digests))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_golden_corpus_is_blas_independent(coretype, tmp_path):
    # the fixtures that run a Cholesky solve, under another OpenBLAS kernel;
    # where the BLAS ignores the variable this still checks the digests
    out = _python(_BUILD_SOLVED, tmp_path, OPENBLAS_CORETYPE=coretype)
    assert json.loads(out.splitlines()[-1]) == {name: GOLDEN[name]["digest"]
                               for name in ("spline", "glued")}


def test_import_loads_no_scipy(tmp_path):
    out = _python("import sys, certapprox, certapprox.cli\n"
                  "print(sorted(m for m in sys.modules"
                  " if m == 'scipy' or m.startswith('scipy.')))", tmp_path)
    assert out == "[]\n"


# ----------------------------------------------------------------------------
# hand-edited, resealed documents end in a verdict or a parse error
# ----------------------------------------------------------------------------

def _resealed(path, mutate, out):
    doc = json.loads(path.read_text())
    mutate(doc)
    doc["digest"] = compute_digest(doc)
    out.write_text(json.dumps(doc))
    return out


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return mutate


def _regenealogized(mutate):
    """mutate, then list the members, ladder and modulus in the genealogy."""
    def run(doc):
        mutate(doc)
        doc["genealogy"] = [d["digest"] for d in
                            doc["members"] + doc["ladder"] + [doc["modulus"]]]
    return run


def _anchor_past_its_modulus(doc):
    # the n*=6 claim under the n*=5 claim's own, self-consistent record
    deeper = json.loads(serialize(transfer(tent_sequence(), 0.0625)))
    doc.update(deeper, modulus=doc["modulus"])


# fixture, mutation, verify's exit code: 4 for a malformed document, refused
# at parse time before any checking; 3 for a well-formed forgery
HOSTILE = {
    "limit-epsilon-abc": ("limit_cert", _set("epsilon_exact", "abc"), 4),
    "limit-tail-abc": ("limit_cert", _set("tail_bound", "abc"), 4),
    "limit-rung-bound-abc": ("limit_cert", _set("ladder", 0, "bound", "abc"), 4),
    "limit-modulus-abc": ("limit_cert", _set("modulus", "argument", "abc"), 4),
    "limit-epsilon-1/0": ("limit_cert", _set("epsilon_exact", "1/0"), 4),
    "limit-modulus-0/1": ("limit_cert", _set("modulus", "argument", "0/1"), 4),
    "limit-n_star-negative": ("limit_cert", _set("n_star", -1), 4),
    "limit-ladder-emptied": ("limit_cert", _regenealogized(_set("ladder", [])), 3),
    "limit-anchor-past-its-modulus": (
        "limit_cert", _regenealogized(_anchor_past_its_modulus), 3),
    "limit-n_star-1e12": ("limit_cert", _set("n_star", 10 ** 12), 3),
    "glued-no-patches": ("glued_cert", _set("cover", "patches", []), 4),
    "glued-no-locals": ("glued_cert", _set("locals", []), 4),
    "approximation-tolerance-x": ("spline_cert", _set("tolerance", "x"), 4),
    "approximation-construction-list": ("spline_cert", _set("construction", []), 4),
    # no route writes this norm kind any more
    "approximation-chebyshev-weighted-norm": ("spline_cert", _set(
        "norm", "kind", "chebyshev_weighted_l2"), 4),
}


@pytest.mark.parametrize("fixture,mutate,code", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_documents_never_raise(fixture, mutate, code, request, workdir, capsys):
    bad = _resealed(request.getfixturevalue(fixture), mutate,
                    workdir / ("hostile" + FILE_SUFFIX))
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert "verdict: FAIL" in out and err == ""
    # inspect only parses
    assert cli.main(["inspect", str(bad)]) == (0 if code == 3 else 4)


def _swap_patch_indices(doc):
    a, b = doc["locals"][0], doc["locals"][1]
    a["patch_index"], b["patch_index"] = b["patch_index"], a["patch_index"]


def _swap_locals(doc):
    doc["locals"][0], doc["locals"][1] = doc["locals"][1], doc["locals"][0]


def _widen_patch_and_cover(doc):
    doc["cover"]["patches"][1] = doc["locals"][1]["patch"] = [0.25, 0.75]


def _local_resealed(*keys_and_value):
    """Set a field of local 1's certificate and reseal that local too, so
    only the glued claim can object."""
    def mutate(doc):
        local = doc["locals"][1]["certificate"]
        _set(*keys_and_value)(local)
        doc["genealogy"][1] = local["digest"] = compute_digest(local)
    return mutate


@pytest.mark.parametrize("mutate", [
    _set("locals", 1, "patch_index", 7),
    _swap_patch_indices,
    _set("locals", 1, "patch", [0.25, 0.75]),
    _swap_locals,
    _widen_patch_and_cover,
    _local_resealed("norm", "kind", "l2"),
    _local_resealed("norm", "domain", [0.35, 0.7]),
], ids=["index-7", "indices-swapped", "patch-widened", "locals-swapped",
        "patch-and-cover-widened", "norm-l2", "norm-narrowed"])
def test_local_off_its_patch_fails(glued_cert, workdir, capsys, mutate):
    bad = _resealed(glued_cert, mutate, workdir / ("offpatch" + FILE_SUFFIX))
    assert cli.main(["verify", str(bad)]) == 3
    assert "does not match its patch" in capsys.readouterr().out


UNMEASURABLE = {
    "rung-5-3": ("limit_cert", _set("ladder", 0, "pair", [5, 3]), "ladder is not the 8 rungs"),
    "rung-5-0": ("limit_cert", _set("ladder", 0, "pair", [5, 0]), "ladder is not the 8 rungs"),
    "rung-5-minus-1": ("limit_cert", _set("ladder", 0, "pair", [5, -1]),
                       "ladder is not the 8 rungs"),
    "patch-narrowed": ("glued_cert", _set("cover", "patches", 1, [0.4, 0.5]),
                       "patches are not a chain"),
    "domain-widened": ("glued_cert", _set("cover", "domain", [-1, 1]),
                       "global error cannot be measured: the cover or a local breaks"),
    "domain-empty": ("glued_cert", _set("cover", "domain", [0, 0]),
                     "cover domain does not match its patches"),
    "local-term-index-0": ("glued_cert", _set("locals", 0, "certificate", "terms", 0, 0, 0),
                           "overlap (0, 1) cannot be measured"),
    "domain-narrowed": ("glued_cert", _set("cover", "domain", [0.2, 0.8]),
                        "cover domain does not match its patches"),
    "records-emptied": ("glued_cert", _set("reconciliation", []),
                        "reconciliation records are not the consecutive pairs"),
    "post-mismatch-1e9": ("glued_cert", _set("reconciliation", 0, "post_mismatch", 1e9),
                          "overlap (0, 1) mismatch 1.77641e-05 is not the recorded one"),
    "unadjusted-with-deltas": ("glued_cert", _set("reconciliation", 0, "deltas", [[2, 1e-3]]),
                               "unadjusted pair (0, 1) records an adjustment"),
    "unadjusted-flagged": ("glued_cert", _set("reconciliation", 1, "adjusted", True),
                           "adjusted pairs and parents differ in number"),
    "local-error-lowered": ("glued_cert", _local_resealed("reported_error", 1e-9),
                            "local 1: recomputed error 5.94362e-05 vs reported 1e-09"),
}


@pytest.mark.parametrize("fixture,mutate,note", UNMEASURABLE.values(),
                         ids=UNMEASURABLE.keys())
def test_unmeasurable_claims_fail(fixture, mutate, note, request, workdir, capsys):
    # a claim a helper cannot measure, or a record its parts contradict, is
    # a failed claim: exit 3 with a note, never a crash
    bad = _resealed(request.getfixturevalue(fixture), mutate,
                    workdir / ("unmeasurable" + FILE_SUFFIX))
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert note in out


@pytest.mark.parametrize("fixture", ["spline_cert", "glued_cert"])
@pytest.mark.parametrize("name", ["series:tent:n=abc", "series:tent:n=", "series:tent:n=3x"])
def test_hostile_target_names_are_expression_errors(fixture, name, request, workdir, capsys):
    bad = _resealed(request.getfixturevalue(fixture), _set("target", name),
                    workdir / ("badname" + FILE_SUFFIX))
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "expression error" in err and "Traceback" not in err


def _usage_error(argv, tmp_path, launch=None):
    """Run the CLI as a process; it must exit 4 with one stderr line."""
    main = "import sys; from certapprox.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, *(launch or ["-c", main]), *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    return done.stderr


def test_a_document_never_opens_its_data_path(sample_cert, workdir, capsys):
    data, out = sample_cert
    bad = _resealed(out, _set("target", f"data:{data}"),
                    workdir / ("datapath" + FILE_SUFFIX))
    capsys.readouterr()
    with mock.patch("builtins.open", wraps=open) as opened:
        assert cli.main(["verify", str(bad)]) == 4
    assert [c.args[0] for c in opened.call_args_list] == [str(bad)]
    assert "pass --target data:PATH" in capsys.readouterr().err


def test_a_missing_data_file_is_a_usage_error(tmp_path):
    err = _usage_error(["approximate", "--target", f"data:{tmp_path / 'missing.dat'}",
                        "--basis", "fourier_sine", "--eps", "0.2"], tmp_path)
    assert "missing.dat" in err


def test_an_unconvertible_tent_depth_is_a_usage_error(spline_cert, tmp_path):
    digits = "9" * 5000
    err = _usage_error(["approximate", "--target", f"builtin:tent_series({digits})",
                        "--basis", "tent", "--eps", "0.1"], tmp_path)
    assert "5000 digits" in err
    bad = _resealed(spline_cert, _set("target", f"series:tent:n={digits}"),
                    tmp_path / ("deep" + FILE_SUFFIX))
    assert "5000 digits" in _usage_error(["verify", str(bad)], tmp_path)


@pytest.mark.parametrize("mutate", [
    _set("tolerance", 10 ** 400),
    _set("reported_error", 10 ** 400),
    _set("terms", 0, 1, 10 ** 400),
], ids=["tolerance", "reported-error", "coefficient"])
def test_an_overflowing_number_is_a_usage_error(spline_cert, mutate, tmp_path):
    bad = _resealed(spline_cert, mutate, tmp_path / ("overflow" + FILE_SUFFIX))
    for command in ("verify", "inspect"):
        assert "non-finite number" in _usage_error([command, str(bad)], tmp_path)


def test_nesting_past_the_recursion_limit_is_a_usage_error(spline_cert, tmp_path):
    top = tmp_path / ("top" + FILE_SUFFIX)
    top.write_text("[" * 200000)
    for command in ("verify", "inspect"):
        assert "nests too deeply" in _usage_error([command, str(top)], tmp_path)
    # inside the opaque rule, shallow enough to load but, under the module
    # entry point's frames, too deep for the canonical comparison
    raw = spline_cert.read_text()
    nested = raw.replace('"rule":{', '"rule":{"nested":' + "[" * 985 + "]" * 985 + ",", 1)
    assert nested != raw
    deep = tmp_path / ("deep" + FILE_SUFFIX)
    deep.write_text(nested)
    assert "nests too deeply to encode" in _usage_error(
        ["verify", str(deep)], tmp_path, launch=["-m", "certapprox.cli"])


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    err = _usage_error(["limit", "--eps", "0.125", "--out", str(out)], tmp_path)
    assert str(out) in err and not out.parent.exists()


def test_the_module_entry_point_prints_one_stderr_line(tmp_path):
    out = tmp_path / "missing" / "x.json"
    err = _usage_error(["limit", "--eps", "0.125", "--out", str(out)], tmp_path,
                       launch=["-m", "certapprox.cli"])
    assert str(out) in err


def test_the_package_loads_cli_on_first_use(tmp_path):
    out = _python("import sys, certapprox\n"
                  "print('certapprox.cli' in sys.modules, certapprox.cli.main.__module__)",
                  tmp_path)
    assert out == "False certapprox.cli\n"


def _old_format(doc):
    # the fields a glued document carried before its error came from its parts
    doc.update(pou={"ramps": [[0.3, 0.36666666666666664], [0.6333333333333333, 0.7]]},
               c_pu=13.0, bound_estimate=0.065059436242204685)


@pytest.mark.parametrize("fixture,mutate", [
    ("spline_cert", _set("note", "edited after sealing")),
    ("glued_cert", _set("locals", 1, "note", "edited after sealing")),
    ("glued_cert", _old_format),
], ids=["top-level", "inside-a-local", "old-glued-format"])
def test_unsealed_fields_are_parse_errors(fixture, mutate, request, workdir, capsys):
    bad = _resealed(request.getfixturevalue(fixture), mutate,
                    workdir / ("unsealed" + FILE_SUFFIX))
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "does not seal" in err
    # inspect only parses
    assert cli.main(["inspect", str(bad)]) == 0


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_are_parse_errors(spline_cert, text, workdir, capsys):
    raw = spline_cert.read_text()
    bad = workdir / ("nonfinite" + FILE_SUFFIX)
    bad.write_text(raw.replace('"tolerance":0.001', f'"tolerance":{text}'))
    assert bad.read_text() != raw
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 4
    assert cli.main(["inspect", str(bad)]) == 4
    assert "non-finite number" in capsys.readouterr().err


# each kind's fixture, parser and verifier
VERIFIERS = {
    "approximation": ("spline_cert", certificate_from_dict,
                      lambda c: verify(c, from_builtin("sinpi"))),
    "glued": ("glued_cert", glued_from_dict,
              lambda c: verify_glued(c, from_builtin("sinpi"))),
    "limit": ("limit_cert", limit_from_dict, verify_limit),
}


# a value of each JSON type; 10**400 is the number, out of range for every
# numeric field
REPLACEMENTS = {"string": "x", "bool": True, "null": None, "list": [],
                "object": {}, "number": 10 ** 400}
JSON_TYPES = {str: "string", bool: "bool", type(None): "null", list: "list",
              dict: "object", int: "number", float: "number"}


def _leaves(value, path="$"):
    """(path, holder, key) of every scalar and empty container in value,
    except under the opaque construction.rule."""
    items = value.items() if type(value) is dict else enumerate(value)
    for k, v in items:
        at = f"{path}.{k}" if type(value) is dict else f"{path}[{k}]"
        if type(v) not in (dict, list) or not v:
            yield at, value, k
        elif not at.endswith(".construction.rule"):
            yield from _leaves(v, at)


@pytest.mark.parametrize("replacement", REPLACEMENTS)
@pytest.mark.parametrize("kind", VERIFIERS)
def test_a_leaf_of_the_wrong_type_is_a_parse_error_naming_it(kind, replacement, request):
    fixture, parse, _ = VERIFIERS[kind]
    doc = json.loads(request.getfixturevalue(fixture).read_text())
    value = REPLACEMENTS[replacement]
    replaced = 0
    for path, holder, key in list(_leaves(doc)):
        old = holder[key]
        if JSON_TYPES[type(old)] == replacement != "number":
            continue
        holder[key] = value
        with pytest.raises(CertificateParseError) as e:
            parse(doc)
        holder[key] = old
        assert str(e.value).startswith(path + ": "), (path, str(e.value))
        replaced += 1
    assert replaced > 20


@pytest.mark.parametrize("fixture,parse,check", VERIFIERS.values(), ids=VERIFIERS.keys())
def test_a_halved_report_breaks_the_bound_not_the_structure(fixture, parse, check,
                                                            request, workdir, capsys):
    def halve(doc):
        doc["reported_error"] /= 2
    bad = _resealed(request.getfixturevalue(fixture), halve,
                    workdir / ("halved" + FILE_SUFFIX))
    report = check(parse(json.loads(bad.read_text())))
    assert report.structural_ok and not report.bound_honored
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "bound honored: no\nstructure: ok\n" in out
    assert "verdict: FAIL" in out
