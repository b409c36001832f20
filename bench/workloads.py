"""The four benchmark workloads: what each worker call runs.

Three workloads are ``cstarseq`` command lines, run in a worker as
``cstarseq.cli.main(argv)`` with stdout captured.  Their inputs are fixed:
they are the paper audit and two block-ideal grids named by window and eps,
so the seed has nothing to vary in them.  The fourth, ``algebra-order``, is a
batch of library calls into ``cstarseq.algebra`` whose entries are drawn from
the seed; its make-up (how many elements of which size) is fixed, so its cost
does not depend on the seed.
"""

from __future__ import annotations

import json

import numpy as np

MAX_WINDOW = 1 << 20
FINE_EPS = 1e-5

BLOCK_RUN = ["run", "--scenario", "block-harmonic", "--metric", "scaled",
             "--ideal", "block"]

CLI_ARGV = {
    "audit-8192": ["audit-paper", "--json", "--window", "8192"],
    "block-wide": BLOCK_RUN + ["--eps", "0.1", "--eps", "0.01",
                               "--window", str(MAX_WINDOW)],
    "block-fine-eps": BLOCK_RUN + ["--eps", repr(FINE_EPS), "--window", "4096"],
}

WORKLOADS = tuple(CLI_ARGV) + ("algebra-order",)

# (kind, dim or grid size, scalars, pairs): the fixed make-up of one
# algebra-order call.  Every size gets a share of the Jacobi work, and one
# call lasts at least about a second even when the host runs fast.
ALGEBRA_MAKEUP = (
    ("matrix", 2, "real", 36), ("matrix", 2, "complex", 36),
    ("matrix", 3, "real", 24), ("matrix", 3, "complex", 24),
    ("matrix", 4, "real", 18), ("matrix", 4, "complex", 18),
    ("matrix", 8, "real", 6), ("matrix", 8, "complex", 6),
    ("matrix", 16, "real", 1), ("matrix", 16, "complex", 1),
    ("function", 64, "real", 24), ("function", 64, "complex", 24),
)


def algebra_batch(seed: int) -> list[tuple]:
    """Pairs (kind, scalars, a, b) of raw entries drawn from the seed."""
    rng = np.random.default_rng(seed)
    batch = []
    for kind, size, scalars, pairs in ALGEBRA_MAKEUP:
        shape = (size, size) if kind == "matrix" else (size,)
        for _ in range(pairs):
            a, b = (_draw(rng, shape, scalars) for _ in range(2))
            batch.append((kind, scalars, a, b))
    return batch


def _draw(rng, shape, scalars):
    x = rng.standard_normal(shape)
    if scalars == "complex":
        x = x + 1j * rng.standard_normal(shape)
    return x


def algebra_call(batch) -> str:
    """The timed algebra-order call: build the elements, then norms, spectra
    and the cone order.  Building is timed too, so work moved into element
    construction still shows.

    Returns the outputs as a JSON document; floats are written with repr so
    two runs of the same batch can be compared byte for byte.
    """
    from cstarseq.algebra import (
        function_element, involution, is_positive, matrix_element, op_norm,
        precedes, spectrum,
    )

    rows = []
    for kind, scalars, a_entries, b_entries in batch:
        if kind == "matrix":
            a = matrix_element(a_entries, scalars)
            b = matrix_element(b_entries, scalars)
        else:
            a, b = function_element(a_entries), function_element(b_entries)
        aa = involution(a) @ a
        total = aa + involution(b) @ b
        below = -aa - a.descriptor.identity()
        rows.append({
            "norm_a": op_norm(a),
            "norm_aa": op_norm(aa),
            "norm_sum": op_norm(total),
            "spectrum_aa": [v.real for v in spectrum(aa).values],
            "aa_positive": is_positive(aa),
            "below_positive": is_positive(below),
            "aa_precedes_sum": precedes(aa, total),
        })
    return json.dumps(rows, sort_keys=True)
