"""Count fields reject fractional values, naming the field."""

import numpy as np
import pytest

from skylink import qkd, synth
from skylink.coupling import ReceiverChain, eta_phi_on
from skylink.zernike import ModeVarianceSet, noll_weight, radial_order, turbulence_variance

_VARIANCES = ModeVarianceSet({j: 0.01 for j in range(1, 4)})

# (field name, call with the value in that field's place)
_COUNT_FIELDS = [
    ("block_size", lambda v: qkd.QkdSessionModel(qkd.SNSPD, block_size=v)),
    ("ao_modes", lambda v: ReceiverChain(ao_modes=v)),
    ("n_samples", lambda v: synth.SynthConfig(r0=0.08, n_samples=v)),
    ("j_max", lambda v: synth.SynthConfig(r0=0.08, j_max=v)),
    ("ao_modes", lambda v: synth.SynthConfig(r0=0.08, ao_modes=v)),
    ("seed", lambda v: synth.SynthConfig(r0=0.08, seed=v)),
    ("J", lambda v: eta_phi_on(_VARIANCES, v)),
    ("j", radial_order),
    ("j", noll_weight),
    ("j", lambda v: turbulence_variance(v, 0.41, 0.1)),
]


@pytest.mark.parametrize("name, call", _COUNT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 3.000001])
def test_count_fields_reject_fractions(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d+, got {value}$"):
        call(value)


@pytest.mark.parametrize("name, call", _COUNT_FIELDS)
@pytest.mark.parametrize(
    "value", [np.float64("inf"), np.float64("-inf"), np.float32("inf"), np.float32("-inf")]
)
def test_count_fields_reject_numpy_infinities(name, call, value):
    # No errstate: under the suite's error::RuntimeWarning, inf % 1 would raise.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d+, got {value}$"):
        call(value)


@pytest.mark.parametrize("name, call", _COUNT_FIELDS)
def test_count_fields_take_whole_floats(name, call):
    call(3.0)


def test_whole_float_counts_generate_the_same_series():
    as_int = synth.generate_series(synth.SynthConfig(r0=0.08, n_samples=50, j_max=4, seed=3))
    as_float = synth.generate_series(
        synth.SynthConfig(r0=0.08, n_samples=50.0, j_max=4.0, seed=3.0)
    )
    assert (as_int.coefficients == as_float.coefficients).all()
