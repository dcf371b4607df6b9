"""Pinned trajectories: a change that alters any bit of a run fails here.

Every run of a fixed quadratic grid is hashed (final_x and every history
array) and compared with the digests the simulator produced before its
steps were made to write into run-owned buffers.  A diagonal quadratic
with decimal-literal eigenvalues keeps BLAS, LAPACK and libm out of these
arrays: they come from elementwise IEEE arithmetic, numpy's fixed
summation orders and numpy's Philox streams alone.
"""

import hashlib
import itertools

import pytest

from gradcomp import AlphaSchedule, CompressorSpec, ProblemSpec, RunConfig, SchemeSpec, run

PROBLEM = ProblemSpec(kind="quadratic", spectrum=(1.0, 0.8, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005))
COMPRESSORS = {
    "one_bit": CompressorSpec("one_bit"),
    "top_k": CompressorSpec("top_k", k=3),
    "rand_k": CompressorSpec("rand_k", k=3),
    "stoch_quant": CompressorSpec("stoch_quant", levels=3),
    "identity": CompressorSpec("identity"),
}
SCHEDULES = {
    "momentum": AlphaSchedule("constant", alpha=0.3),
    "storm": AlphaSchedule("inverse_linear", c0=0.1),
    "igt": AlphaSchedule("constant", alpha=0.2),
}
GRID = list(itertools.product(COMPRESSORS, ("none", "single", "two_step"), SCHEDULES, (1, 3)))

# name -> sha256 of final_x and the five history arrays, first 16 hex digits.
PINNED = {
    "one_bit/none/momentum/n1": "a09d4d0815b72911",
    "one_bit/none/momentum/n3": "e3ecdfad606823b7",
    "one_bit/none/storm/n1": "640de1fdff1aa402",
    "one_bit/none/storm/n3": "6176bdafab7bae7a",
    "one_bit/none/igt/n1": "d21d301121305ca8",
    "one_bit/none/igt/n3": "0d151331b1fbc2fe",
    "one_bit/single/momentum/n1": "fc8908c01edea0b4",
    "one_bit/single/momentum/n3": "a11b7ec24f77c1fe",
    "one_bit/single/storm/n1": "1456e6f8615adb8d",
    "one_bit/single/storm/n3": "e65143f5c7fc6637",
    "one_bit/single/igt/n1": "8da9b0c036dbe8ef",
    "one_bit/single/igt/n3": "a37f801e5e278b31",
    "one_bit/two_step/momentum/n1": "d1869923365afd56",
    "one_bit/two_step/momentum/n3": "4f38ed073390565e",
    "one_bit/two_step/storm/n1": "91c43d17b11089aa",
    "one_bit/two_step/storm/n3": "ba5da8039e7f2b16",
    "one_bit/two_step/igt/n1": "f49d61440f153bca",
    "one_bit/two_step/igt/n3": "a72de50f5ce3b417",
    "top_k/none/momentum/n1": "0ee8c92f7ac4f2d3",
    "top_k/none/momentum/n3": "bb1e7f81216eb24c",
    "top_k/none/storm/n1": "ea6b83fc00cd61bf",
    "top_k/none/storm/n3": "d511476b3d550f5b",
    "top_k/none/igt/n1": "fb7ec26274ed1370",
    "top_k/none/igt/n3": "88793ef90fcb7641",
    "top_k/single/momentum/n1": "3cd5aaeda735f5db",
    "top_k/single/momentum/n3": "7bad7d70e9590730",
    "top_k/single/storm/n1": "525cdc2405b2d75a",
    "top_k/single/storm/n3": "7f4e53b75c2a4595",
    "top_k/single/igt/n1": "3ddf2a1c6662d7f8",
    "top_k/single/igt/n3": "cfa3a16c2a834146",
    "top_k/two_step/momentum/n1": "e09126b4c87c22e8",
    "top_k/two_step/momentum/n3": "57d984d4e44ee559",
    "top_k/two_step/storm/n1": "68c3c83adcaf5844",
    "top_k/two_step/storm/n3": "3c01a6183df8ab69",
    "top_k/two_step/igt/n1": "9388d541577a86a2",
    "top_k/two_step/igt/n3": "5d2923a7ef247e71",
    "rand_k/none/momentum/n1": "6a7dfd0b4a8fe887",
    "rand_k/none/momentum/n3": "5b3df9d1f0699bbd",
    "rand_k/none/storm/n1": "fcf0a1ee2172aabd",
    "rand_k/none/storm/n3": "9aa7a1a032b3b972",
    "rand_k/none/igt/n1": "2cf2997d63ea895e",
    "rand_k/none/igt/n3": "11d4d9e938dd8004",
    "rand_k/single/momentum/n1": "1d1e02ff82565f90",
    "rand_k/single/momentum/n3": "d89828cc47088e2a",
    "rand_k/single/storm/n1": "94b14f70f642ce82",
    "rand_k/single/storm/n3": "b896dff4cedd2be7",
    "rand_k/single/igt/n1": "8ac0555f349a0b71",
    "rand_k/single/igt/n3": "27e0647a4c9505b7",
    "rand_k/two_step/momentum/n1": "88b490be04a80d7d",
    "rand_k/two_step/momentum/n3": "a84f74caa1cff2a1",
    "rand_k/two_step/storm/n1": "712da2aed0c514cf",
    "rand_k/two_step/storm/n3": "983a31c0a624b3a3",
    "rand_k/two_step/igt/n1": "658882a20f7a5d8a",
    "rand_k/two_step/igt/n3": "865e5dccd1896cbf",
    "stoch_quant/none/momentum/n1": "139406337d77570e",
    "stoch_quant/none/momentum/n3": "59e383285995db25",
    "stoch_quant/none/storm/n1": "f2d2dd4436c63fa1",
    "stoch_quant/none/storm/n3": "53d84d8f4dd9619f",
    "stoch_quant/none/igt/n1": "8793807639b46638",
    "stoch_quant/none/igt/n3": "1eaa0c33dfdff567",
    "stoch_quant/single/momentum/n1": "fdd9b50a2b6c4791",
    "stoch_quant/single/momentum/n3": "20143ac1df8ba5dc",
    "stoch_quant/single/storm/n1": "8a474a4102f1c8f1",
    "stoch_quant/single/storm/n3": "2b38e2a12b1e188e",
    "stoch_quant/single/igt/n1": "4b90b9016d1a8873",
    "stoch_quant/single/igt/n3": "3deb58ed86c561b0",
    "stoch_quant/two_step/momentum/n1": "bf3c319bd5c950ad",
    "stoch_quant/two_step/momentum/n3": "97e6a705d899d60c",
    "stoch_quant/two_step/storm/n1": "7b6960f375b2674f",
    "stoch_quant/two_step/storm/n3": "f18ad73868ad4414",
    "stoch_quant/two_step/igt/n1": "d4a5c960a7be42a3",
    "stoch_quant/two_step/igt/n3": "239285c04ca6176b",
    "identity/none/momentum/n1": "d02e33f389b77d39",
    "identity/none/momentum/n3": "b3069deecfa9e7c6",
    "identity/none/storm/n1": "13dd5260cfb3f1d6",
    "identity/none/storm/n3": "2ee847f31b52ff0d",
    "identity/none/igt/n1": "1646250c79fcb0b4",
    "identity/none/igt/n3": "c426be4b7f848cb1",
    "identity/single/momentum/n1": "d02e33f389b77d39",
    "identity/single/momentum/n3": "b3069deecfa9e7c6",
    "identity/single/storm/n1": "13dd5260cfb3f1d6",
    "identity/single/storm/n3": "2ee847f31b52ff0d",
    "identity/single/igt/n1": "1646250c79fcb0b4",
    "identity/single/igt/n3": "c426be4b7f848cb1",
    "identity/two_step/momentum/n1": "d02e33f389b77d39",
    "identity/two_step/momentum/n3": "9ba8c42130f5462f",
    "identity/two_step/storm/n1": "13dd5260cfb3f1d6",
    "identity/two_step/storm/n3": "b024bf843a544700",
    "identity/two_step/igt/n1": "1646250c79fcb0b4",
    "identity/two_step/igt/n3": "f4c2883fc05ea994",
}


def digest(compressor: str, scheme: str, estimator: str, n: int) -> str:
    trace = run(
        RunConfig(
            problem=PROBLEM,
            estimator=estimator,
            schedule=SCHEDULES[estimator],
            scheme=SchemeSpec(scheme, beta=0.4),
            compressor=COMPRESSORS[compressor],
            n_workers=n,
            steps=30,
            gamma=0.3,
            seed=11,
            record_history=True,
        )
    )
    h = trace.history
    sha = hashlib.sha256()
    for array in (trace.final_x, h.x, h.v, h.a_bar, h.e_bar, h.delta_bar):
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


def name(compressor, scheme, estimator, n) -> str:
    return f"{compressor}/{scheme}/{estimator}/n{n}"


@pytest.mark.parametrize("compressor, scheme, estimator, n", GRID, ids=[name(*cell) for cell in GRID])
def test_trajectory_digest_is_pinned(compressor, scheme, estimator, n):
    assert digest(compressor, scheme, estimator, n) == PINNED[name(compressor, scheme, estimator, n)]
