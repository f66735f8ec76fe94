import math

import numpy as np
import pytest

from phaserep.optics import effective_toffoli
from phaserep.qmat import _real, normalize_phase
from phaserep.tomo import TomographyDataset

# one "[criterion NN] PASS/FAIL" line per acceptance check, echoed after the
# run so the verdicts survive output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def reference_channel(phi, params, project=True):
    """The experiment channel built one phase at a time, as a Kraus list.

    The optical Toffoli's Kraus operators, each restricted to idler
    input |0>, the phase multiplied onto the idler's |1> output leg,
    then either the |+> projection (the two legs summed, times
    1/sqrt(2)) or, with ``project`` false, both idler outcomes kept as
    separate operators; spatial dephasing last, as the kept operators
    and their spatial-Z flips.  The oracle for the phase-grid builder
    and for the success weight of the projection.
    """
    kraus3, _ = effective_toffoli(params)
    phase = np.exp(1j * normalize_phase(phi))
    kraus2 = []
    for k in kraus3:
        b = k.reshape(4, 2, 4, 2)[:, :, :, 0].copy()
        b[:, 1, :] *= phase
        if project:
            kraus2.append((b[:, 0, :] + b[:, 1, :]) * (1.0 / math.sqrt(2.0)))
        else:
            kraus2.extend([b[:, 0, :], b[:, 1, :]])
    sigma = params.phase_jitter_sigma
    if sigma == 0.0:
        return kraus2
    p_keep = 0.5 * (1.0 + math.exp(-0.5 * sigma * sigma))
    return ([math.sqrt(p_keep) * m for m in kraus2]
            + [math.sqrt(1.0 - p_keep) * np.concatenate((m[:2], -m[2:]))
               for m in kraus2])


def expected_counts(channel, design, rate, phase=0.0):
    """Noise-free dataset: exact Poisson means, no sampling; a row the
    channel cannot reach gets exactly 0 (see ``probabilities``).  The
    oracle of the noiseless tomography tests.  The rate is checked
    first, so that an infinite one raises no RuntimeWarning (inf * 0)."""
    rate = _real(rate, "rate", positive=True)
    return TomographyDataset(phase, rate * design.probabilities(channel),
                             rate)
