"""Pinned trajectories: a change that alters any bit of a run fails here.

Every run of a fixed quadratic grid is hashed (final_x and every history
array) and compared with the digests the simulator produced before its
steps were made to write into run-owned buffers (double_compression), or
before the server's filter state became a row of the fleet's (single_round
and single_worker).  The ghost replay of the recorded runs is pinned the
same way, from before it became a step iterator.  A diagonal quadratic with
decimal-literal eigenvalues keeps BLAS, LAPACK and libm out of these arrays:
they come from elementwise IEEE arithmetic, numpy's fixed summation orders
and numpy's Philox streams alone.
"""

import hashlib
import itertools

import pytest

from gradcomp import AlphaSchedule, CompressorSpec, ProblemSpec, RunConfig, SchemeSpec, ghost_run, run
from test_simulator import trace_bytes

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
# The same grid on the topologies whose server never compresses, so its row
# of the fleet's filter state must stay zero (single_worker has one worker).
TOPOLOGY_GRID = [
    (topology, *cell)
    for topology in ("single_round", "single_worker")
    for cell in GRID
    if topology == "single_round" or cell[3] == 1
]
# The ghost replay of recorded runs, pinned before it became a step iterator.
GHOST_GRID = list(itertools.product(("one_bit", "top_k"), ("none", "single", "two_step"), SCHEDULES, (1, 4)))

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

# The same for TOPOLOGY_GRID, keyed "<topology>/<name>", recorded before the
# server's filter state became a row of the fleet's.
PINNED_TOPOLOGIES = {
    "single_round/one_bit/none/momentum/n1": "3124ea097f56c3ae",
    "single_round/one_bit/none/momentum/n3": "643dc6daf8e39870",
    "single_round/one_bit/none/storm/n1": "0ce701d0aa9d46d7",
    "single_round/one_bit/none/storm/n3": "83faeb4b7274009a",
    "single_round/one_bit/none/igt/n1": "4fa0be4c97014135",
    "single_round/one_bit/none/igt/n3": "a3c19893d55c0c78",
    "single_round/one_bit/single/momentum/n1": "d5dd28d45c9cb46b",
    "single_round/one_bit/single/momentum/n3": "750f4e967d3b7eb0",
    "single_round/one_bit/single/storm/n1": "40ad0fc8bd3fc68b",
    "single_round/one_bit/single/storm/n3": "7faee05b03842629",
    "single_round/one_bit/single/igt/n1": "8228e123f9bc5a25",
    "single_round/one_bit/single/igt/n3": "fe1fde8560990fa7",
    "single_round/one_bit/two_step/momentum/n1": "a4032971294b5231",
    "single_round/one_bit/two_step/momentum/n3": "5ffc893e359034d9",
    "single_round/one_bit/two_step/storm/n1": "67c7e303e1ef4692",
    "single_round/one_bit/two_step/storm/n3": "3e68e2ba673370d3",
    "single_round/one_bit/two_step/igt/n1": "968caf3472178ea5",
    "single_round/one_bit/two_step/igt/n3": "1c06c6ca37d1c91a",
    "single_round/top_k/none/momentum/n1": "0ee8c92f7ac4f2d3",
    "single_round/top_k/none/momentum/n3": "bb1e7f81216eb24c",
    "single_round/top_k/none/storm/n1": "ea6b83fc00cd61bf",
    "single_round/top_k/none/storm/n3": "d511476b3d550f5b",
    "single_round/top_k/none/igt/n1": "fb7ec26274ed1370",
    "single_round/top_k/none/igt/n3": "88793ef90fcb7641",
    "single_round/top_k/single/momentum/n1": "3cd5aaeda735f5db",
    "single_round/top_k/single/momentum/n3": "7bad7d70e9590730",
    "single_round/top_k/single/storm/n1": "525cdc2405b2d75a",
    "single_round/top_k/single/storm/n3": "7f4e53b75c2a4595",
    "single_round/top_k/single/igt/n1": "3ddf2a1c6662d7f8",
    "single_round/top_k/single/igt/n3": "cfa3a16c2a834146",
    "single_round/top_k/two_step/momentum/n1": "e09126b4c87c22e8",
    "single_round/top_k/two_step/momentum/n3": "57d984d4e44ee559",
    "single_round/top_k/two_step/storm/n1": "68c3c83adcaf5844",
    "single_round/top_k/two_step/storm/n3": "3c01a6183df8ab69",
    "single_round/top_k/two_step/igt/n1": "9388d541577a86a2",
    "single_round/top_k/two_step/igt/n3": "5d2923a7ef247e71",
    "single_round/rand_k/none/momentum/n1": "4ca246e190e43a08",
    "single_round/rand_k/none/momentum/n3": "e6b9385e261b6f6f",
    "single_round/rand_k/none/storm/n1": "8081644685bea108",
    "single_round/rand_k/none/storm/n3": "5f9b5e25fec52ab2",
    "single_round/rand_k/none/igt/n1": "1a8080569e1309a3",
    "single_round/rand_k/none/igt/n3": "862a2f0bd80e7d2a",
    "single_round/rand_k/single/momentum/n1": "a83d8f529e220e0c",
    "single_round/rand_k/single/momentum/n3": "400deaa5f858bee7",
    "single_round/rand_k/single/storm/n1": "094c0ab92aa229c2",
    "single_round/rand_k/single/storm/n3": "9f380648c820a7ce",
    "single_round/rand_k/single/igt/n1": "ebdf7c268f14d503",
    "single_round/rand_k/single/igt/n3": "c0ceb98656ffc5dd",
    "single_round/rand_k/two_step/momentum/n1": "e87abda3dc258fd3",
    "single_round/rand_k/two_step/momentum/n3": "8396877eee0f1c83",
    "single_round/rand_k/two_step/storm/n1": "b2f83b75a1dedb05",
    "single_round/rand_k/two_step/storm/n3": "0a0e32cfdf6f597f",
    "single_round/rand_k/two_step/igt/n1": "5be0d8ccb34e875e",
    "single_round/rand_k/two_step/igt/n3": "f33c3aac740ffe98",
    "single_round/stoch_quant/none/momentum/n1": "139406337d77570e",
    "single_round/stoch_quant/none/momentum/n3": "7abbb53682e101ad",
    "single_round/stoch_quant/none/storm/n1": "f2d2dd4436c63fa1",
    "single_round/stoch_quant/none/storm/n3": "10da22c57da3529d",
    "single_round/stoch_quant/none/igt/n1": "8793807639b46638",
    "single_round/stoch_quant/none/igt/n3": "83ab93520e7582d7",
    "single_round/stoch_quant/single/momentum/n1": "fdd9b50a2b6c4791",
    "single_round/stoch_quant/single/momentum/n3": "f333d543f75b15bc",
    "single_round/stoch_quant/single/storm/n1": "8a474a4102f1c8f1",
    "single_round/stoch_quant/single/storm/n3": "bf749dbfd25ee836",
    "single_round/stoch_quant/single/igt/n1": "4b90b9016d1a8873",
    "single_round/stoch_quant/single/igt/n3": "1af2b686ccead70e",
    "single_round/stoch_quant/two_step/momentum/n1": "bf3c319bd5c950ad",
    "single_round/stoch_quant/two_step/momentum/n3": "ee047872cf2629d3",
    "single_round/stoch_quant/two_step/storm/n1": "7b6960f375b2674f",
    "single_round/stoch_quant/two_step/storm/n3": "9708b113086a71a4",
    "single_round/stoch_quant/two_step/igt/n1": "d4a5c960a7be42a3",
    "single_round/stoch_quant/two_step/igt/n3": "9af72a81ce17e9cd",
    "single_round/identity/none/momentum/n1": "d02e33f389b77d39",
    "single_round/identity/none/momentum/n3": "b3069deecfa9e7c6",
    "single_round/identity/none/storm/n1": "13dd5260cfb3f1d6",
    "single_round/identity/none/storm/n3": "2ee847f31b52ff0d",
    "single_round/identity/none/igt/n1": "1646250c79fcb0b4",
    "single_round/identity/none/igt/n3": "c426be4b7f848cb1",
    "single_round/identity/single/momentum/n1": "d02e33f389b77d39",
    "single_round/identity/single/momentum/n3": "b3069deecfa9e7c6",
    "single_round/identity/single/storm/n1": "13dd5260cfb3f1d6",
    "single_round/identity/single/storm/n3": "2ee847f31b52ff0d",
    "single_round/identity/single/igt/n1": "1646250c79fcb0b4",
    "single_round/identity/single/igt/n3": "c426be4b7f848cb1",
    "single_round/identity/two_step/momentum/n1": "d02e33f389b77d39",
    "single_round/identity/two_step/momentum/n3": "9ba8c42130f5462f",
    "single_round/identity/two_step/storm/n1": "13dd5260cfb3f1d6",
    "single_round/identity/two_step/storm/n3": "b024bf843a544700",
    "single_round/identity/two_step/igt/n1": "1646250c79fcb0b4",
    "single_round/identity/two_step/igt/n3": "f4c2883fc05ea994",
    "single_worker/one_bit/none/momentum/n1": "3124ea097f56c3ae",
    "single_worker/one_bit/none/storm/n1": "0ce701d0aa9d46d7",
    "single_worker/one_bit/none/igt/n1": "4fa0be4c97014135",
    "single_worker/one_bit/single/momentum/n1": "d5dd28d45c9cb46b",
    "single_worker/one_bit/single/storm/n1": "40ad0fc8bd3fc68b",
    "single_worker/one_bit/single/igt/n1": "8228e123f9bc5a25",
    "single_worker/one_bit/two_step/momentum/n1": "a4032971294b5231",
    "single_worker/one_bit/two_step/storm/n1": "67c7e303e1ef4692",
    "single_worker/one_bit/two_step/igt/n1": "968caf3472178ea5",
    "single_worker/top_k/none/momentum/n1": "0ee8c92f7ac4f2d3",
    "single_worker/top_k/none/storm/n1": "ea6b83fc00cd61bf",
    "single_worker/top_k/none/igt/n1": "fb7ec26274ed1370",
    "single_worker/top_k/single/momentum/n1": "3cd5aaeda735f5db",
    "single_worker/top_k/single/storm/n1": "525cdc2405b2d75a",
    "single_worker/top_k/single/igt/n1": "3ddf2a1c6662d7f8",
    "single_worker/top_k/two_step/momentum/n1": "e09126b4c87c22e8",
    "single_worker/top_k/two_step/storm/n1": "68c3c83adcaf5844",
    "single_worker/top_k/two_step/igt/n1": "9388d541577a86a2",
    "single_worker/rand_k/none/momentum/n1": "4ca246e190e43a08",
    "single_worker/rand_k/none/storm/n1": "8081644685bea108",
    "single_worker/rand_k/none/igt/n1": "1a8080569e1309a3",
    "single_worker/rand_k/single/momentum/n1": "a83d8f529e220e0c",
    "single_worker/rand_k/single/storm/n1": "094c0ab92aa229c2",
    "single_worker/rand_k/single/igt/n1": "ebdf7c268f14d503",
    "single_worker/rand_k/two_step/momentum/n1": "e87abda3dc258fd3",
    "single_worker/rand_k/two_step/storm/n1": "b2f83b75a1dedb05",
    "single_worker/rand_k/two_step/igt/n1": "5be0d8ccb34e875e",
    "single_worker/stoch_quant/none/momentum/n1": "139406337d77570e",
    "single_worker/stoch_quant/none/storm/n1": "f2d2dd4436c63fa1",
    "single_worker/stoch_quant/none/igt/n1": "8793807639b46638",
    "single_worker/stoch_quant/single/momentum/n1": "fdd9b50a2b6c4791",
    "single_worker/stoch_quant/single/storm/n1": "8a474a4102f1c8f1",
    "single_worker/stoch_quant/single/igt/n1": "4b90b9016d1a8873",
    "single_worker/stoch_quant/two_step/momentum/n1": "bf3c319bd5c950ad",
    "single_worker/stoch_quant/two_step/storm/n1": "7b6960f375b2674f",
    "single_worker/stoch_quant/two_step/igt/n1": "d4a5c960a7be42a3",
    "single_worker/identity/none/momentum/n1": "d02e33f389b77d39",
    "single_worker/identity/none/storm/n1": "13dd5260cfb3f1d6",
    "single_worker/identity/none/igt/n1": "1646250c79fcb0b4",
    "single_worker/identity/single/momentum/n1": "d02e33f389b77d39",
    "single_worker/identity/single/storm/n1": "13dd5260cfb3f1d6",
    "single_worker/identity/single/igt/n1": "1646250c79fcb0b4",
    "single_worker/identity/two_step/momentum/n1": "d02e33f389b77d39",
    "single_worker/identity/two_step/storm/n1": "13dd5260cfb3f1d6",
    "single_worker/identity/two_step/igt/n1": "1646250c79fcb0b4",
}

# GHOST_GRID -> sha256 of the ghost's u, x_hat and final_x_hat, first 16 hex
# digits.  On a quadratic every worker sees the same gradient, so n = 1 and
# n = 4 share a ghost.
PINNED_GHOSTS = {
    "one_bit/none/momentum/n1": "daa7cd0965e25f59",
    "one_bit/none/momentum/n4": "daa7cd0965e25f59",
    "one_bit/none/storm/n1": "fc9e5ce4a9f1f93a",
    "one_bit/none/storm/n4": "fc9e5ce4a9f1f93a",
    "one_bit/none/igt/n1": "c9a31df9cbc0de74",
    "one_bit/none/igt/n4": "c9a31df9cbc0de74",
    "one_bit/single/momentum/n1": "ab65196167190b61",
    "one_bit/single/momentum/n4": "ab65196167190b61",
    "one_bit/single/storm/n1": "04690f8521bbd06d",
    "one_bit/single/storm/n4": "04690f8521bbd06d",
    "one_bit/single/igt/n1": "324106214d86c295",
    "one_bit/single/igt/n4": "324106214d86c295",
    "one_bit/two_step/momentum/n1": "a5b69537bb65a61e",
    "one_bit/two_step/momentum/n4": "a5b69537bb65a61e",
    "one_bit/two_step/storm/n1": "707ceaee46a92c81",
    "one_bit/two_step/storm/n4": "707ceaee46a92c81",
    "one_bit/two_step/igt/n1": "eca10a47c4106da0",
    "one_bit/two_step/igt/n4": "eca10a47c4106da0",
    "top_k/none/momentum/n1": "ff7ebb407207451d",
    "top_k/none/momentum/n4": "ff7ebb407207451d",
    "top_k/none/storm/n1": "b2aac647aa4c6d82",
    "top_k/none/storm/n4": "b2aac647aa4c6d82",
    "top_k/none/igt/n1": "9e5f4c1c0b24ae49",
    "top_k/none/igt/n4": "9e5f4c1c0b24ae49",
    "top_k/single/momentum/n1": "a0239bc5967141b7",
    "top_k/single/momentum/n4": "a0239bc5967141b7",
    "top_k/single/storm/n1": "8efdc8c910b23a4a",
    "top_k/single/storm/n4": "8efdc8c910b23a4a",
    "top_k/single/igt/n1": "873baad4e0846acf",
    "top_k/single/igt/n4": "873baad4e0846acf",
    "top_k/two_step/momentum/n1": "f3d94d08e8466b2b",
    "top_k/two_step/momentum/n4": "f3d94d08e8466b2b",
    "top_k/two_step/storm/n1": "17517a04d890fc4b",
    "top_k/two_step/storm/n4": "17517a04d890fc4b",
    "top_k/two_step/igt/n1": "17acb707c9384471",
    "top_k/two_step/igt/n4": "17acb707c9384471",
}


def recorded_run(compressor: str, scheme: str, estimator: str, n: int, topology: str = "double_compression"):
    return run(
        RunConfig(
            problem=PROBLEM,
            estimator=estimator,
            schedule=SCHEDULES[estimator],
            scheme=SchemeSpec(scheme, beta=0.4),
            compressor=COMPRESSORS[compressor],
            topology=topology,
            n_workers=n,
            steps=30,
            gamma=0.3,
            seed=11,
            record_history=True,
        )
    )


def digest(compressor: str, scheme: str, estimator: str, n: int, topology: str = "double_compression") -> str:
    trace = recorded_run(compressor, scheme, estimator, n, topology)
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


@pytest.mark.parametrize(
    "topology, compressor, scheme, estimator, n",
    TOPOLOGY_GRID,
    ids=[f"{topology}/{name(*cell)}" for topology, *cell in TOPOLOGY_GRID],
)
def test_other_topology_digest_is_pinned(topology, compressor, scheme, estimator, n):
    key = f"{topology}/{name(compressor, scheme, estimator, n)}"
    assert digest(compressor, scheme, estimator, n, topology) == PINNED_TOPOLOGIES[key]


def ghost_digest(compressor: str, scheme: str, estimator: str, n: int) -> str:
    ghost = ghost_run(recorded_run(compressor, scheme, estimator, n))
    sha = hashlib.sha256()
    for array in (ghost.u, ghost.x_hat, ghost.final_x_hat):
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("compressor, scheme, estimator, n", GHOST_GRID, ids=[name(*cell) for cell in GHOST_GRID])
def test_ghost_digest_is_pinned(compressor, scheme, estimator, n):
    assert ghost_digest(compressor, scheme, estimator, n) == PINNED_GHOSTS[name(compressor, scheme, estimator, n)]


# Dataset problems, which the quadratic grid above never reaches: the
# minibatch draws, the stacked grad_at and the warm start through
# stoch_grad.  These arrays do go through BLAS and LAPACK (the designed
# matrix's SVD and every matrix product), so the digests hold for the numpy
# build they were pinned with, which the quadratic digests do not need.
DATASETS = {
    "lin_reg": ProblemSpec(kind="lin_reg", dim=8, n_samples=64, noise_std=0.1, batch_size=3, seed=5),
    "log_reg": ProblemSpec(kind="log_reg", dim=8, n_samples=64, l2_reg=0.05, batch_size=3, seed=5),
}
DATASET_GRID = list(
    itertools.product(DATASETS, ("none", "single", "two_step"), ("one_bit", "top_k", "rand_k"),
                      ("momentum", "storm"), (1, 4))
)
# Two quadratics the grid above does not reach: one_bit at a width past
# compression.SIGN_TILE, which signs each row in column tiles, and a warm
# start of three draws, which goes through stoch_grad.
WIDE = ProblemSpec(kind="quadratic", spectrum=(1.0, 0.5, 0.2, 0.1) * 10_000)
QUADRATIC_CASES = {
    "quadratic/one_bit/d40000": dict(problem=WIDE, n_workers=2, steps=10),
    "quadratic/one_bit/b0_3": dict(problem=PROBLEM, n_workers=3, steps=30, b0=3),
}

# name -> sha256 of test_simulator.trace_bytes of the run, first 16 hex digits.
PINNED_DATASETS = {
    "lin_reg/none/one_bit/momentum/n1": "c36417f3cf5694c4",
    "lin_reg/none/one_bit/momentum/n4": "e541a7c158e6e85c",
    "lin_reg/none/one_bit/storm/n1": "08bfc9e1b0641d7f",
    "lin_reg/none/one_bit/storm/n4": "7273e183a92a87d8",
    "lin_reg/none/top_k/momentum/n1": "a92e9129713a8a75",
    "lin_reg/none/top_k/momentum/n4": "14ca13fa074c49ff",
    "lin_reg/none/top_k/storm/n1": "38ac02943d5a3b25",
    "lin_reg/none/top_k/storm/n4": "940d65f721a74b19",
    "lin_reg/none/rand_k/momentum/n1": "634b8f2ffbbe0f05",
    "lin_reg/none/rand_k/momentum/n4": "5d8f904681d6ea5f",
    "lin_reg/none/rand_k/storm/n1": "06ab4188650ae446",
    "lin_reg/none/rand_k/storm/n4": "a6d4dba8cc1ed48f",
    "lin_reg/single/one_bit/momentum/n1": "a4de5dc7fce85f03",
    "lin_reg/single/one_bit/momentum/n4": "32511a8ba0458298",
    "lin_reg/single/one_bit/storm/n1": "1f1cee500e5e6ba9",
    "lin_reg/single/one_bit/storm/n4": "1a426c2a42f03e64",
    "lin_reg/single/top_k/momentum/n1": "551ade9f95b0a545",
    "lin_reg/single/top_k/momentum/n4": "0367c3ed1771a9e5",
    "lin_reg/single/top_k/storm/n1": "cfde123bc237b1dc",
    "lin_reg/single/top_k/storm/n4": "8fb6acd705788a8b",
    "lin_reg/single/rand_k/momentum/n1": "d48f68926c7c64fc",
    "lin_reg/single/rand_k/momentum/n4": "a3fe9b72c11faa09",
    "lin_reg/single/rand_k/storm/n1": "e774354925bf3498",
    "lin_reg/single/rand_k/storm/n4": "6bec6f80f6c74346",
    "lin_reg/two_step/one_bit/momentum/n1": "ec58333f4bbf09d8",
    "lin_reg/two_step/one_bit/momentum/n4": "5d2eb99313683cd5",
    "lin_reg/two_step/one_bit/storm/n1": "9c658172fdf6b7d3",
    "lin_reg/two_step/one_bit/storm/n4": "bc7ff72f256eb07f",
    "lin_reg/two_step/top_k/momentum/n1": "1a1b6defa2a0a428",
    "lin_reg/two_step/top_k/momentum/n4": "d7d8c2a7bf96c70d",
    "lin_reg/two_step/top_k/storm/n1": "1e0a7425558900a5",
    "lin_reg/two_step/top_k/storm/n4": "658b13dc5bca5b2d",
    "lin_reg/two_step/rand_k/momentum/n1": "055c75abf3bc01ca",
    "lin_reg/two_step/rand_k/momentum/n4": "00504befa3ac50e3",
    "lin_reg/two_step/rand_k/storm/n1": "9898df9cc3e258e5",
    "lin_reg/two_step/rand_k/storm/n4": "1468c7f5c930710d",
    "log_reg/none/one_bit/momentum/n1": "48b05c932746da23",
    "log_reg/none/one_bit/momentum/n4": "3540e370a0746821",
    "log_reg/none/one_bit/storm/n1": "7be7477ca080619a",
    "log_reg/none/one_bit/storm/n4": "96a7d6cf0ade2634",
    "log_reg/none/top_k/momentum/n1": "6623a5a6c5d6eb2d",
    "log_reg/none/top_k/momentum/n4": "c8297eecb27fb15d",
    "log_reg/none/top_k/storm/n1": "84c6493c773ba349",
    "log_reg/none/top_k/storm/n4": "556763ff2db3af52",
    "log_reg/none/rand_k/momentum/n1": "c91fe6a81f3869d3",
    "log_reg/none/rand_k/momentum/n4": "caa6702f354f073e",
    "log_reg/none/rand_k/storm/n1": "730ad246940164e9",
    "log_reg/none/rand_k/storm/n4": "61bb53ecc5ad6dda",
    "log_reg/single/one_bit/momentum/n1": "67356bee2e598c0c",
    "log_reg/single/one_bit/momentum/n4": "b5fa1cc5fad9ac85",
    "log_reg/single/one_bit/storm/n1": "6951c2e51fee90bb",
    "log_reg/single/one_bit/storm/n4": "45b59023788ec16a",
    "log_reg/single/top_k/momentum/n1": "ab0b2c8cdb4721ea",
    "log_reg/single/top_k/momentum/n4": "a4dc516cf988140a",
    "log_reg/single/top_k/storm/n1": "101290fa253c5109",
    "log_reg/single/top_k/storm/n4": "5fbc3db315a8c432",
    "log_reg/single/rand_k/momentum/n1": "e4ef9a85f46dd375",
    "log_reg/single/rand_k/momentum/n4": "565f1f3a6574352d",
    "log_reg/single/rand_k/storm/n1": "79e95416d1d3dc2d",
    "log_reg/single/rand_k/storm/n4": "a0894cc56dc460d2",
    "log_reg/two_step/one_bit/momentum/n1": "a7a453a3abb9efd8",
    "log_reg/two_step/one_bit/momentum/n4": "b066585216cfce7c",
    "log_reg/two_step/one_bit/storm/n1": "cb843c991cb3b048",
    "log_reg/two_step/one_bit/storm/n4": "bdb7a674b34f46db",
    "log_reg/two_step/top_k/momentum/n1": "bf52cff45e5bff1f",
    "log_reg/two_step/top_k/momentum/n4": "46e0e00bfcf57766",
    "log_reg/two_step/top_k/storm/n1": "9604a138c4f32fb9",
    "log_reg/two_step/top_k/storm/n4": "f4be80cf1bbae962",
    "log_reg/two_step/rand_k/momentum/n1": "bf6abade84a5d478",
    "log_reg/two_step/rand_k/momentum/n4": "fa941686776c4eaf",
    "log_reg/two_step/rand_k/storm/n1": "86db9534cd40a837",
    "log_reg/two_step/rand_k/storm/n4": "0d1c7a289e0cdf47",
    "quadratic/one_bit/d40000": "212a884c0e993fad",
    "quadratic/one_bit/b0_3": "233c0fe91382392c",
}


def dataset_name(kind, scheme, compressor, estimator, n) -> str:
    return f"{kind}/{scheme}/{compressor}/{estimator}/n{n}"


def trace_digest(config: RunConfig) -> str:
    sha = hashlib.sha256()
    for chunk in trace_bytes(run(config)):
        sha.update(chunk)
    return sha.hexdigest()[:16]


def dataset_config(kind, scheme, compressor, estimator, n) -> RunConfig:
    return RunConfig(
        problem=DATASETS[kind],
        estimator=estimator,
        schedule=SCHEDULES[estimator],
        scheme=SchemeSpec(scheme, beta=0.4),
        compressor=COMPRESSORS[compressor],
        n_workers=n,
        steps=30,
        gamma=0.05,
        b0=2,
        seed=11,
        record_history=True,
    )


def quadratic_config(**changes) -> RunConfig:
    return RunConfig(
        estimator="momentum",
        schedule=SCHEDULES["momentum"],
        scheme=SchemeSpec("two_step", beta=0.4),
        compressor=COMPRESSORS["one_bit"],
        gamma=0.3,
        seed=11,
        record_history=True,
        **changes,
    )


@pytest.mark.parametrize("cell", DATASET_GRID, ids=[dataset_name(*cell) for cell in DATASET_GRID])
def test_dataset_digest_is_pinned(cell):
    assert trace_digest(dataset_config(*cell)) == PINNED_DATASETS[dataset_name(*cell)]


@pytest.mark.parametrize("case", QUADRATIC_CASES)
def test_quadratic_case_digest_is_pinned(case):
    assert trace_digest(quadratic_config(**QUADRATIC_CASES[case])) == PINNED_DATASETS[case]
