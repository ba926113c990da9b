import numpy as np
import pytest

from gpplatoon.hv import fit_hv_correction, generate_synthetic_trace


def ramp_profile(knots_t, knots_v):
    kt = np.asarray(knots_t, dtype=float)
    kv = np.asarray(knots_v, dtype=float)

    def profile(t):
        return float(np.interp(t, kt, kv))

    return profile


# Steep ramps for the modeling-accuracy experiment: large tracking lags
# (v_av - v_hv) drive the disturbance to its largest values and spread the
# lag-1 pairs across its input range. They do not lift it above the noise
# in one-step residuals: the recorded lags amplify the measurement noise by
# ||(1, c)|| ~ 4.9 to a residual std of ~0.0020, against a disturbance RMS
# of ~0.0007. The GP still learns the disturbance by averaging through that
# noise (its fitted noise variance is ~4.0e-6 ~ 0.0020**2), and held-out
# accuracy is measured on noise-free copies of the held-out traces.
MODEL_PROFILES = [
    ramp_profile(
        [0, 8, 16, 26, 34, 44, 52, 62, 70, 80, 90, 100, 110, 120],
        [2, 12, 12, 3, 3, 14, 14, 2, 8, 8, 16, 4, 4, 10],
    ),
    ramp_profile(
        [0, 10, 18, 28, 36, 46, 56, 64, 74, 84, 94, 104, 114, 120],
        [8, 2, 2, 13, 13, 4, 11, 11, 2, 10, 10, 3, 24, 6],
    ),
]

MODEL_HELDOUT = [
    ramp_profile([0, 9, 18, 30, 40, 52, 62, 74, 84, 96, 108, 120],
                 [3, 13, 13, 2, 11, 11, 3, 12, 5, 5, 15, 6]),
    ramp_profile([0, 12, 20, 32, 42, 54, 66, 76, 88, 100, 112, 120],
                 [11, 11, 2, 10, 10, 3, 13, 13, 4, 9, 9, 2]),
]

MODEL_NOISE_STD = 0.0004

# Control experiments run with a larger output noise so the learned
# one-step uncertainty matters to the controller.
CONTROL_PROFILES = [
    ramp_profile(
        [0, 15, 30, 45, 60, 75, 90, 105, 120],
        [3, 20, 20, 8, 8, 28, 28, 5, 15],
    ),
    ramp_profile(
        [0, 10, 25, 40, 55, 70, 85, 100, 120],
        [2, 10, 32, 12, 25, 4, 18, 18, 6],
    ),
]
CONTROL_NOISE_STD = 0.08


@pytest.fixture(scope="session")
def driver_traces():
    train = [
        generate_synthetic_trace(p, duration=120.0, step=0.1,
                                 noise_std=MODEL_NOISE_STD, seed=100 + i)
        for i, p in enumerate(MODEL_PROFILES)
    ]
    heldout = [
        generate_synthetic_trace(p, duration=120.0, step=0.1,
                                 noise_std=MODEL_NOISE_STD, seed=200 + i)
        for i, p in enumerate(MODEL_HELDOUT)
    ]
    # The same held-out drives without measurement noise: there the ARX
    # one-step error is exactly the disturbance.
    heldout_clean = [
        generate_synthetic_trace(p, duration=120.0, step=0.1,
                                 noise_std=0.0, seed=200 + i)
        for i, p in enumerate(MODEL_HELDOUT)
    ]
    # The same held-out drives at the control experiments' noise level.
    heldout_control = [
        generate_synthetic_trace(p, duration=120.0, step=0.1,
                                 noise_std=CONTROL_NOISE_STD, seed=200 + i)
        for i, p in enumerate(MODEL_HELDOUT)
    ]
    return {"train": train, "heldout": heldout, "heldout_clean": heldout_clean,
            "heldout_control": heldout_control}


@pytest.fixture(scope="session")
def hv_fit(driver_traces):
    """Discrepancy GP for the modeling-accuracy experiment (small noise)."""
    return fit_hv_correction(driver_traces["train"], fraction=0.2, seed=7, m=20)


@pytest.fixture(scope="session")
def control_fit():
    """Discrepancy GP trained at the control experiments' noise level."""
    train = [
        generate_synthetic_trace(p, duration=120.0, step=0.1,
                                 noise_std=CONTROL_NOISE_STD, seed=300 + i)
        for i, p in enumerate(CONTROL_PROFILES)
    ]
    return fit_hv_correction(train, fraction=0.2, seed=11, m=20)
