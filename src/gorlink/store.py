"""Certificate persistence: one structured text file per verification run.

Files are written atomically (temp file + rename) into a flat store
directory, named edge_<d>_<e>_<hash-of-h>_<seed>.cert.  Fields appear in
a fixed order and polynomials use the canonical text format, so a stored
certificate can be replayed bit-exactly.
"""

import hashlib
import os
import tempfile

from .gf import check_modulus
from .groebner import MAX_HF_PROBE
from .hvectors import HVector
from .mpoly import MultiPoly
from .gorenstein import ProjectionWitness, SkewPolyMatrix
from .tangent import EdgeCertificate
from .unipoly import UniPoly

__all__ = [
    "hvector_hash",
    "certificate_filename",
    "serialize_certificate",
    "parse_certificate",
    "save_certificate",
    "load_certificates",
    "write_index",
]


def hvector_hash(h):
    return hashlib.blake2b(h.csv().encode(), digest_size=4).hexdigest()


def certificate_filename(cert):
    return "edge_%d_%d_%s_%d.cert" % (cert.d, cert.e, hvector_hash(cert.h), cert.seed)


_TEST_KEYS = (
    "reduced_split",
    "generic_hf_X",
    "generic_hf_Y",
    "additivity",
    "hom_IX",
    "hom_IY",
    "smooth_SG",
)


def serialize_certificate(cert):
    lines = [
        "h: %s" % cert.h.csv(),
        "d: %d" % cert.d,
        "e: %d" % cert.e,
        "p: %d" % cert.p,
        "seed: %d" % cert.seed,
        "attempt: %d" % cert.attempt,
    ]
    if cert.matrix is None:
        lines.append("matrix: none")
    else:
        lines.append("matrix:")
        lines.append(cert.matrix.serialize())
        lines.append("end_matrix")
        lines.append("ell: %s" % cert.witness.ell.render())
        lines.append("xh: %s" % cert.witness.xh.render())
        lines.append("factor: %s" % cert.witness.factor.coeff_csv())
        lines.append(
            "dims: hom_IX=%d hom_IY=%d hom_SG=%d gdim=%d"
            % (cert.hom_IX, cert.hom_IY, cert.hom_SG, cert.gdim)
        )
        lines.append("h_x: %s" % ",".join(map(str, cert.h_x)))
        lines.append("h_y: %s" % ",".join(map(str, cert.h_y)))
    tests = cert.tests or {}
    lines.append(
        "tests: "
        + " ".join("%s=%d" % (k, int(bool(tests.get(k)))) for k in _TEST_KEYS if k in tests)
    )
    lines.append("verdict: %s" % cert.verdict)
    return "\n".join(lines) + "\n"


def _linear_form(fields, key, p):
    """The form on the `key:` line, which must be a nonzero linear form: a
    projection witness's ell and x_h are."""
    f = MultiPoly.parse(fields[key], p, 1)
    if f.is_zero():
        raise ValueError("%s must be a nonzero linear form" % key)
    return f


def parse_certificate(text):
    lines = text.splitlines()
    fields = {}
    matrix_text = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("matrix:"):
            if line.split(":", 1)[1].strip() == "none":
                matrix_text = None
                i += 1
                continue
            block = []
            i += 1
            while i < len(lines) and lines[i] != "end_matrix":
                block.append(lines[i])
                i += 1
            matrix_text = "\n".join(block)
            i += 1
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        i += 1
    h = HVector.from_csv(fields["h"])
    p = check_modulus(int(fields["p"]))
    matrix = witness = None
    hom_ix = hom_iy = hom_sg = h_x = h_y = None
    gdim = None
    if matrix_text is not None:
        # replay needs HF(S/I_G) to repeat at degree len(h) < MAX_HF_PROBE, and
        # a presentation of h has entries of degree at most len(h)
        if len(h.entries) >= MAX_HF_PROBE:
            raise ValueError("h longer than the %d entries replay checks" % (MAX_HF_PROBE - 1))
        matrix = SkewPolyMatrix.deserialize(matrix_text, p, len(h.entries))
        witness = ProjectionWitness(
            _linear_form(fields, "ell", p),
            _linear_form(fields, "xh", p),
            UniPoly.from_coeff_csv(fields["factor"], p),
        )
        dims = dict(kv.split("=") for kv in fields["dims"].split())
        hom_ix, hom_iy = int(dims["hom_IX"]), int(dims["hom_IY"])
        hom_sg, gdim = int(dims["hom_SG"]), int(dims["gdim"])
        h_x = tuple(int(x) for x in fields["h_x"].split(",")) if fields.get("h_x") else ()
        h_y = tuple(int(x) for x in fields["h_y"].split(",")) if fields.get("h_y") else ()
    tests = {}
    for kv in fields.get("tests", "").split():
        k, _, v = kv.partition("=")
        tests[k] = bool(int(v))
    return EdgeCertificate(
        h=h,
        d=int(fields["d"]),
        e=int(fields["e"]),
        p=p,
        seed=int(fields["seed"]),
        attempt=int(fields["attempt"]),
        matrix=matrix,
        witness=witness,
        hom_IX=hom_ix,
        hom_IY=hom_iy,
        hom_SG=hom_sg,
        gdim=gdim,
        tests=tests,
        verdict=fields["verdict"],
        h_x=h_x,
        h_y=h_y,
    )


def save_certificate(cert, store_dir):
    """Atomic write; returns the file path."""
    os.makedirs(store_dir, exist_ok=True)
    name = certificate_filename(cert)
    path = os.path.join(store_dir, name)
    fd, tmp = tempfile.mkstemp(dir=store_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(serialize_certificate(cert))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_certificates(store_dir):
    """All parseable certificates, plus (filename, error) for the rest."""
    certs, errors = [], []
    if not os.path.isdir(store_dir):
        return certs, errors
    for name in sorted(os.listdir(store_dir)):
        if not name.endswith(".cert"):
            continue
        path = os.path.join(store_dir, name)
        try:
            with open(path) as fh:
                certs.append(parse_certificate(fh.read()))
        except Exception as exc:  # malformed file: skip with report
            errors.append((name, str(exc)))
    return certs, errors


def write_index(store_dir):
    """Regenerate a human-readable index of the store."""
    certs, errors = load_certificates(store_dir)
    lines = []
    for c in certs:
        lines.append(
            "%s d=%d e=%d p=%d seed=%d verdict=%s"
            % (c.h.csv(), c.d, c.e, c.p, c.seed, c.verdict)
        )
    for name, err in errors:
        lines.append("UNPARSED %s: %s" % (name, err))
    path = os.path.join(store_dir, "index.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return path
