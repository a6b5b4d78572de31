"""Extension bench: the cell-encoding study (binary vs Gray coding)."""

import pytest

from repro.experiments.common import resolve_scale


def test_ext_gray_encoding(run_experiment):
    table = run_experiment("ext_gray")

    by = {(row[0], row[1], row[2]): row for row in table.rows}
    ts = sorted({row[0] for row in table.rows})
    algorithms = sorted({row[1] for row in table.rows})

    for t in ts:
        for algorithm in algorithms:
            binary = by[(t, algorithm, "binary")]
            gray = by[(t, algorithm, "gray")]
            # Identical physics: error rates match across encodings
            # (abs tolerance covers small-n sampling noise at the knee).
            assert gray[4] == pytest.approx(binary[4], rel=0.3, abs=4e-3)
            # Gray halves-ish the mean value displacement per error
            # (one bit flip instead of up-to-two).  Needs enough errors to
            # average over, i.e. default scale or T above the knee.
            if resolve_scale(None) != "smoke" and binary[5] > 0:
                assert gray[5] < binary[5]
    # The headline: Rem — the quantity the paper's study rests on — is
    # encoding-insensitive (within 2x at every point).
    for t in ts:
        for algorithm in algorithms:
            binary_rem = by[(t, algorithm, "binary")][3]
            gray_rem = by[(t, algorithm, "gray")][3]
            if binary_rem > 0.01:
                assert 0.5 < gray_rem / binary_rem < 2.0

