"""The network oracle pinned bit for bit.

Each element's output state and each runner's result on fixed inputs is
compared, as `float.hex`, with values recorded from the oracle before its
elements shared one loop (the "single" coupling on atom bit 1 was recorded
before the coupling became a table). A refactor of the oracle must leave
all of them unchanged. `p_h_reject` is left out: it is defined as a conditional
probability whose denominator is checked against mpmath in
`test_oracle.py`.
"""

import math

import pytest

from cavsim import CavityParams, JointState, reflection_lossy
from cavsim.oracle import (
    NetworkState,
    apply_attenuator,
    apply_hwp,
    apply_pbs,
    apply_phase,
    apply_qwp,
    apply_scattering,
    herald,
    measure_polarization,
    prepare_photon_atom,
    run_cz_new,
    run_cz_old,
    run_remote_new,
)

REFL = reflection_lossy(CavityParams(c=2.5, delta_c=0.4, delta_a=-0.3, kappa_ratio=0.8))
REFL_2 = reflection_lossy(CavityParams(c=0.7, delta_c=-1.1, delta_a=0.6, kappa_ratio=0.95))


def _hand_state():
    """Six labels on two paths, three modes and four two-atom indices; 0.1
    already discarded."""
    amps = {
        ("H", "in", (), 0): 0.31 - 0.22j,
        ("V", "in", (), 1): -0.27 + 0.35j,
        ("H", "in", ("m",), 2): 0.18 + 0.41j,
        ("V", "in", ("x",), 3): -0.33 - 0.12j,
        ("H", "b", (), 0): 0.25 + 0.19j,
        ("V", "b", ("m",), 3): 0.0,
    }
    rest = sum(abs(a) ** 2 for a in amps.values())
    amps[("V", "b", ("m",), 3)] = complex(0.3, 0.2) * math.sqrt((0.9 - rest) / 0.13)
    return NetworkState(amps, 0.1)


def _chain_state():
    """Two atoms (atom bit 1 in the cavity), split by a PBS and reflected
    with zeta < 1: two paths, two modes, and loss already discarded."""
    st = prepare_photon_atom({"H": 0.6, "V": 0.8j}, (0.5, -0.5j, 0.3 + 0.4j, -0.5))
    st = apply_pbs(st, "in", "cav", "byp")
    return apply_scattering(st, "cav", REFL, zeta=0.9, theta=0.4, coupling="degenerate", atom_bit=1)


INPUTS = {"hand": (_hand_state, "in", "b"), "chain": (_chain_state, "cav", "byp")}

ELEMENTS = {
    "pbs": lambda s, p, q: apply_pbs(s, p, "h_out", "v_out"),
    "hwp": lambda s, p, q: apply_hwp(s, p),
    "qwp": lambda s, p, q: apply_qwp(s, p),
    "phase": lambda s, p, q: apply_phase(s, p, -2.3),
    "attenuator": lambda s, p, q: apply_attenuator(s, p, 0.6),
    "scattering": lambda s, p, q: apply_scattering(s, p, REFL_2, 0.8, -1.2, "single", 0),
    "scattering_bit_1": lambda s, p, q: apply_scattering(s, p, REFL_2, 0.8, -1.2, "single", 1),
    "herald": lambda s, p, q: herald(s, {p, q}),
    "measure_polarization": lambda s, p, q: measure_polarization(s, p, "V"),
}


def _dump(result) -> list:
    """One line per label in order, then the discarded (or heralded)
    probability, all as float.hex."""
    state, prob = result if isinstance(result, tuple) else (result, result.discarded)
    lines = [
        f"{pol} {path} {''.join(mode) or '-'} {atom} {a.real.hex()} {a.imag.hex()}"
        for (pol, path, mode, atom), a in state.amps.items()
    ]
    return lines + [f"p {prob.hex()}"]


def _fields(result, names) -> dict:
    return {
        name: v.hex() if isinstance(v, float) else v
        for name in names
        for v in [getattr(result, name)]
    }


GATE_FIELDS = (
    "fidelity", "success_probability", "p_loss", "v_amplitude", "h_amplitude", "no_herald"
)
REMOTE_FIELDS = ("fidelity_v", "fidelity_h", "prob_v", "prob_h", "herald_probability", "no_herald")
STATE = JointState(0.6, 0.8j, 0.36 + 0.48j, -0.8)


def _runs():
    return {
        "cz_new": _fields(
            run_cz_new(REFL, 0.85, STATE, phi=0.7, theta=-1.1, v_attenuation=0.9), GATE_FIELDS
        ),
        "cz_old": _fields(run_cz_old(REFL, 0.85, STATE, theta=0.5), GATE_FIELDS),
        "remote_new": _fields(run_remote_new(REFL, REFL_2, 0.3, -0.4), REMOTE_FIELDS),
    }


EXPECTED_ELEMENTS = {
    ("hand", "pbs"): """\
H h_out - 0 0x1.3d70a3d70a3d7p-2 -0x1.c28f5c28f5c29p-3
V v_out - 1 -0x1.147ae147ae148p-2 0x1.6666666666666p-2
H h_out m 2 0x1.70a3d70a3d70ap-3 0x1.a3d70a3d70a3dp-2
V v_out x 3 -0x1.51eb851eb851fp-2 -0x1.eb851eb851eb8p-4
H b - 0 0x1.0000000000000p-2 0x1.851eb851eb852p-3
V b m 3 0x1.3c2abeef76475p-2 0x1.a58e53e9f309dp-3
p 0x1.999999999999ap-4""",
    ("hand", "hwp"): """\
V in - 0 0x1.3d70a3d70a3d7p-2 -0x1.c28f5c28f5c29p-3
H in - 1 -0x1.147ae147ae148p-2 0x1.6666666666666p-2
V in m 2 0x1.70a3d70a3d70ap-3 0x1.a3d70a3d70a3dp-2
H in x 3 -0x1.51eb851eb851fp-2 -0x1.eb851eb851eb8p-4
H b - 0 0x1.0000000000000p-2 0x1.851eb851eb852p-3
V b m 3 0x1.3c2abeef76475p-2 0x1.a58e53e9f309dp-3
p 0x1.999999999999ap-4""",
    ("hand", "qwp"): """\
H in - 0 -0x1.c0ed8e57f0cb5p-3 0x1.3e98126ff5357p-3
V in - 0 0x1.c0ed8e57f0cb5p-3 -0x1.3e98126ff5357p-3
H in - 1 -0x1.870073b7f2c1ap-3 0x1.fadaa8f7eed50p-3
V in - 1 -0x1.870073b7f2c1ap-3 0x1.fadaa8f7eed50p-3
H in m 2 -0x1.04aaf7cff72bcp-3 -0x1.28df2873f5f1dp-2
V in m 2 0x1.04aaf7cff72bcp-3 0x1.28df2873f5f1dp-2
H in x 3 -0x1.dde41ba7efd03p-3 -0x1.5b8e9fbff43a5p-4
V in x 3 -0x1.dde41ba7efd03p-3 -0x1.5b8e9fbff43a5p-4
H b - 0 0x1.0000000000000p-2 0x1.851eb851eb852p-3
V b m 3 0x1.3c2abeef76475p-2 0x1.a58e53e9f309dp-3
p 0x1.999999999999ap-4""",
    ("hand", "phase"): """\
H in - 0 -0x1.7b7ec0dd92830p-2 -0x1.5a78d51e20c2ap-4
V in - 1 0x1.c37905a57bff8p-2 -0x1.04f74b3b9da0cp-5
H in m 2 0x1.7c89aaa4f3514p-3 -0x1.a12d7e5e5facap-2
V in x 3 0x1.0b080ea1f84bcp-3 0x1.4ddc5704ae2ecp-2
H b - 0 0x1.0000000000000p-2 0x1.851eb851eb852p-3
V b m 3 0x1.3c2abeef76475p-2 0x1.a58e53e9f309dp-3
p 0x1.999999999999ap-4""",
    ("hand", "attenuator"): """\
H in - 0 0x1.7ced916872b02p-3 -0x1.0e5604189374cp-3
V in - 1 -0x1.4bc6a7ef9db23p-3 0x1.ae147ae147ae1p-3
H in m 2 0x1.ba5e353f7ced9p-4 0x1.f7ced916872afp-3
V in x 3 -0x1.95810624dd2f2p-3 -0x1.26e978d4fdf3bp-4
H b - 0 0x1.0000000000000p-2 0x1.851eb851eb852p-3
V b m 3 0x1.3c2abeef76475p-2 0x1.a58e53e9f309dp-3
p 0x1.0cae642bf9831p-1""",
    ("hand", "scattering"): """\
H in m 0 -0x1.2d7519427183bp-3 -0x1.28c63b4063ff1p-2
V in m 0 0x0.0p+0 0x0.0p+0
H in x 0 -0x1.53ad99011a92cp-5 -0x1.51a5164b27ad3p-3
H in m 1 -0x1.d1bdf4856103ep-4 -0x1.2f5098ab55230p-7
V in m 1 0x1.3010fbf7f777fp-3 0x1.0d59d2c94247ap-2
V in x 1 0x1.a2569123d4f7ap-4 0x1.5aa4bab30597ep-3
H in mm 2 0x1.7a40662fffe58p-2 -0x1.9cf0810fa1318p-4
V in mm 2 0x0.0p+0 0x0.0p+0
H in mx 2 0x1.99bc06a7e84fbp-3 -0x1.195e2097d05d0p-7
H in xm 3 -0x1.4e4435c8466d0p-6 -0x1.69a9ce519e5aep-4
V in xm 3 -0x1.4e746c370f662p-3 0x1.680058bd774d1p-3
V in xx 3 -0x1.a7eacad6499a8p-4 0x1.e3c1ac9cca8adp-4
H b m 0 0x1.c9f25c5bfedd9p-3 0x1.5c0a1d3bad37cp-3
H b x 0 0x1.ea53b462c44d4p-4 -0x1.2cb59d2713896p-4
V b mm 3 0x1.1ac9d0a9798b9p-2 0x1.790d16374cba2p-3
V b mx 3 0x1.162f097f70b21p-3 -0x1.86831de5d3148p-4
p 0x1.ab55f3f053246p-3""",
    ("hand", "scattering_bit_1"): """\
H in m 0 -0x1.2d7519427183bp-3 -0x1.28c63b4063ff1p-2
V in m 0 0x0.0p+0 0x0.0p+0
H in x 0 -0x1.53ad99011a92cp-5 -0x1.51a5164b27ad3p-3
H in m 1 0x0.0p+0 0x0.0p+0
V in m 1 0x1.0c77fb1d53fcfp-2 0x1.16d4578e9cf0cp-2
V in x 1 0x1.a2569123d4f7ap-4 0x1.5aa4bab30597ep-3
H in mm 2 0x1.3946bd7a31a44p-2 -0x1.1557ec910b1b8p-8
V in mm 2 -0x1.03e6a2d739051p-4 0x1.8b9b0246907fcp-4
H in mx 2 0x1.99bc06a7e84fbp-3 -0x1.195e2097d05d0p-7
H in xm 3 -0x1.4e4435c8466d0p-6 -0x1.69a9ce519e5aep-4
V in xm 3 -0x1.4e746c370f662p-3 0x1.680058bd774d1p-3
V in xx 3 -0x1.a7eacad6499a8p-4 0x1.e3c1ac9cca8adp-4
H b m 0 0x1.c9f25c5bfedd9p-3 0x1.5c0a1d3bad37cp-3
H b x 0 0x1.ea53b462c44d4p-4 -0x1.2cb59d2713896p-4
V b mm 3 0x1.1ac9d0a9798b9p-2 0x1.790d16374cba2p-3
V b mx 3 0x1.162f097f70b21p-3 -0x1.86831de5d3148p-4
p 0x1.ad669e2c8b8b6p-3""",
    ("hand", "herald"): """\
H in - 0 0x1.4e9c73ae44b7fp-2 -0x1.daee93ad06b27p-3
V in - 1 -0x1.236f7d87441c1p-2 0x1.79c969d54553cp-2
H in m 2 0x1.8494a75f057acp-3 0x1.ba8cdb0fc63d9p-2
V in x 3 -0x1.6432eec1c505ep-2 -0x1.030dc4ea03a72p-3
H b - 0 0x1.0dd90273c3ce2p-2 0x1.9a2b227285c8bp-3
V b m 3 0x1.4d44ede4c6c8fp-2 0x1.bc5be7dbb3b6bp-3
p 0x1.ccccccccccccdp-1""",
    ("hand", "measure_polarization"): """\
V in - 1 -0x1.e9bf7e40df697p-2 0x1.3d6de4cb3b787p-1
V in x 3 -0x1.2b4a5b6088878p-1 -0x1.b354e200c6969p-3
p 0x1.46594af4f0d84p-2""",
    ("chain", "pbs"): """\
H h_out m 0 0x1.a45ea9df3de3fp-5 0x1.71c6c62a06e08p-4
V v_out m 0 0x1.462e73a0a209bp-3 -0x1.11643d3574f34p-4
H h_out x 0 0x1.65e810ccafc9dp-4 0x1.2ea4113679b2dp-5
H h_out m 1 0x1.71c6c62a06e08p-4 -0x1.a45ea9df3de3fp-5
V v_out m 1 -0x1.11643d3574f34p-4 -0x1.462e73a0a209bp-3
H h_out x 1 0x1.2ea4113679b2dp-5 -0x1.65e810ccafc9dp-4
H h_out m 2 -0x1.536ba3f07f782p-5 0x1.860387a5b67b7p-4
V v_out m 2 -0x1.3110c4429000cp-3 -0x1.65dafaadbd171p-4
H h_out x 2 0x1.76c00cc749931p-6 0x1.791e129a7df0bp-4
H h_out m 3 -0x1.a45ea9df3de3fp-5 -0x1.71c6c62a06e08p-4
V v_out m 3 0x1.462e73a0a209bp-3 -0x1.11643d3574f34p-4
H h_out x 3 -0x1.65e810ccafc9dp-4 -0x1.2ea4113679b2dp-5
V byp m 0 0x0.0p+0 0x1.8494a75f057acp-2
V byp x 0 -0x1.93856c48a243dp-5 0x1.dd356bbb950d2p-4
V byp m 1 0x1.8494a75f057acp-2 0x0.0p+0
V byp x 1 0x1.dd356bbb950d2p-4 0x1.93856c48a243dp-5
V byp m 2 -0x1.36dd52b26ac8ap-2 0x1.d24bfc0ba02cdp-3
V byp x 2 -0x1.f6d2c378a7ebbp-4 0x1.f3aabbb462192p-6
V byp m 3 0x0.0p+0 -0x1.8494a75f057acp-2
V byp x 3 0x1.93856c48a243dp-5 -0x1.dd356bbb950d2p-4
p 0x1.4aeb3bf998b1fp-3""",
    ("chain", "hwp"): """\
V cav m 0 0x1.a45ea9df3de3fp-5 0x1.71c6c62a06e08p-4
H cav m 0 0x1.462e73a0a209bp-3 -0x1.11643d3574f34p-4
V cav x 0 0x1.65e810ccafc9dp-4 0x1.2ea4113679b2dp-5
V cav m 1 0x1.71c6c62a06e08p-4 -0x1.a45ea9df3de3fp-5
H cav m 1 -0x1.11643d3574f34p-4 -0x1.462e73a0a209bp-3
V cav x 1 0x1.2ea4113679b2dp-5 -0x1.65e810ccafc9dp-4
V cav m 2 -0x1.536ba3f07f782p-5 0x1.860387a5b67b7p-4
H cav m 2 -0x1.3110c4429000cp-3 -0x1.65dafaadbd171p-4
V cav x 2 0x1.76c00cc749931p-6 0x1.791e129a7df0bp-4
V cav m 3 -0x1.a45ea9df3de3fp-5 -0x1.71c6c62a06e08p-4
H cav m 3 0x1.462e73a0a209bp-3 -0x1.11643d3574f34p-4
V cav x 3 -0x1.65e810ccafc9dp-4 -0x1.2ea4113679b2dp-5
V byp m 0 0x0.0p+0 0x1.8494a75f057acp-2
V byp x 0 -0x1.93856c48a243dp-5 0x1.dd356bbb950d2p-4
V byp m 1 0x1.8494a75f057acp-2 0x0.0p+0
V byp x 1 0x1.dd356bbb950d2p-4 0x1.93856c48a243dp-5
V byp m 2 -0x1.36dd52b26ac8ap-2 0x1.d24bfc0ba02cdp-3
V byp x 2 -0x1.f6d2c378a7ebbp-4 0x1.f3aabbb462192p-6
V byp m 3 0x0.0p+0 -0x1.8494a75f057acp-2
V byp x 3 0x1.93856c48a243dp-5 -0x1.dd356bbb950d2p-4
p 0x1.4aeb3bf998b1fp-3""",
    ("chain", "qwp"): """\
H cav m 0 0x1.38aac53d0b954p-4 -0x1.c6c9d912f9938p-4
V cav m 0 0x1.30f4ea16df1e3p-3 0x1.109e1fc0a2d02p-6
H cav x 0 -0x1.fa27ff09dbff6p-5 -0x1.abffb47dee9fep-6
V cav x 0 0x1.fa27ff09dbff6p-5 0x1.abffb47dee9fep-6
H cav m 1 -0x1.c6c9d912f9938p-4 -0x1.38aac53d0b954p-4
V cav m 1 0x1.109e1fc0a2d02p-6 -0x1.30f4ea16df1e3p-3
H cav x 1 -0x1.abffb47dee9fep-6 0x1.fa27ff09dbff6p-5
V cav x 1 0x1.abffb47dee9fep-6 -0x1.fa27ff09dbff6p-5
H cav m 2 -0x1.376cac281e611p-4 -0x1.0869640d8b815p-3
V cav m 2 -0x1.13b72b99e74e4p-3 0x1.6bd4ada8c7ab8p-8
H cav x 2 -0x1.08fd080d7c4c3p-6 -0x1.0aa98de3a2315p-4
V cav x 2 0x1.08fd080d7c4c3p-6 0x1.0aa98de3a2315p-4
H cav m 3 0x1.30f4ea16df1e3p-3 0x1.109e1fc0a2d02p-6
V cav m 3 0x1.38aac53d0b954p-4 -0x1.c6c9d912f9938p-4
H cav x 3 0x1.fa27ff09dbff6p-5 0x1.abffb47dee9fep-6
V cav x 3 -0x1.fa27ff09dbff6p-5 -0x1.abffb47dee9fep-6
V byp m 0 0x0.0p+0 0x1.8494a75f057acp-2
V byp x 0 -0x1.93856c48a243dp-5 0x1.dd356bbb950d2p-4
V byp m 1 0x1.8494a75f057acp-2 0x0.0p+0
V byp x 1 0x1.dd356bbb950d2p-4 0x1.93856c48a243dp-5
V byp m 2 -0x1.36dd52b26ac8ap-2 0x1.d24bfc0ba02cdp-3
V byp x 2 -0x1.f6d2c378a7ebbp-4 0x1.f3aabbb462192p-6
V byp m 3 0x0.0p+0 -0x1.8494a75f057acp-2
V byp x 3 0x1.93856c48a243dp-5 -0x1.dd356bbb950d2p-4
p 0x1.4aeb3bf998b1fp-3""",
    ("chain", "phase"): """\
H cav m 0 0x1.0f67fa6a9f23fp-5 -0x1.931bf1b9a89a6p-4
V cav m 0 -0x1.3f42fa86163b5p-3 -0x1.3050f0ff6dea6p-4
H cav x 0 -0x1.f67f0ea95f9bdp-6 -0x1.6fb6c42631a2bp-4
H cav m 1 -0x1.931bf1b9a89a6p-4 -0x1.0f67fa6a9f23fp-5
V cav m 1 -0x1.3050f0ff6dea6p-4 0x1.3f42fa86163b5p-3
H cav x 1 -0x1.6fb6c42631a2bp-4 0x1.f67f0ea95f9bdp-6
H cav m 2 0x1.93e8bfb4836cbp-4 -0x1.0a9b26897e360p-5
V cav m 2 0x1.17527142b8b12p-5 0x1.5ab443eb19290p-3
H cav x 2 0x1.b597e8a3e5ef2p-5 -0x1.4120abd2641a6p-4
H cav m 3 -0x1.0f67fa6a9f23fp-5 0x1.931bf1b9a89a6p-4
V cav m 3 -0x1.3f42fa86163b5p-3 -0x1.3050f0ff6dea6p-4
H cav x 3 0x1.f67f0ea95f9bdp-6 0x1.6fb6c42631a2bp-4
V byp m 0 0x0.0p+0 0x1.8494a75f057acp-2
V byp x 0 -0x1.93856c48a243dp-5 0x1.dd356bbb950d2p-4
V byp m 1 0x1.8494a75f057acp-2 0x0.0p+0
V byp x 1 0x1.dd356bbb950d2p-4 0x1.93856c48a243dp-5
V byp m 2 -0x1.36dd52b26ac8ap-2 0x1.d24bfc0ba02cdp-3
V byp x 2 -0x1.f6d2c378a7ebbp-4 0x1.f3aabbb462192p-6
V byp m 3 0x0.0p+0 -0x1.8494a75f057acp-2
V byp x 3 0x1.93856c48a243dp-5 -0x1.dd356bbb950d2p-4
p 0x1.4aeb3bf998b1fp-3""",
    ("chain", "attenuator"): """\
H cav m 0 0x1.f87198a57d77ep-6 0x1.bbbb54326ea70p-5
V cav m 0 0x1.876af12728d87p-4 -0x1.4811e30cf2bd8p-5
H cav x 0 0x1.ad7ce0f59fbefp-5 0x1.6b2b47daf8703p-6
H cav m 1 0x1.bbbb54326ea70p-5 -0x1.f87198a57d77ep-6
V cav m 1 -0x1.4811e30cf2bd8p-5 -0x1.876af12728d87p-4
H cav x 1 0x1.6b2b47daf8703p-6 -0x1.ad7ce0f59fbefp-5
H cav m 2 -0x1.974df7ed65c35p-6 0x1.d4043c6074942p-5
V cav m 2 -0x1.6e141eb646675p-4 -0x1.ad6d2cd07c821p-5
H cav x 2 0x1.c1b34288beb07p-7 0x1.c48a7cb963edap-5
H cav m 3 -0x1.f87198a57d77ep-6 -0x1.bbbb54326ea70p-5
V cav m 3 0x1.876af12728d87p-4 -0x1.4811e30cf2bd8p-5
H cav x 3 -0x1.ad7ce0f59fbefp-5 -0x1.6b2b47daf8703p-6
V byp m 0 0x0.0p+0 0x1.8494a75f057acp-2
V byp x 0 -0x1.93856c48a243dp-5 0x1.dd356bbb950d2p-4
V byp m 1 0x1.8494a75f057acp-2 0x0.0p+0
V byp x 1 0x1.dd356bbb950d2p-4 0x1.93856c48a243dp-5
V byp m 2 -0x1.36dd52b26ac8ap-2 0x1.d24bfc0ba02cdp-3
V byp x 2 -0x1.f6d2c378a7ebbp-4 0x1.f3aabbb462192p-6
V byp m 3 0x0.0p+0 -0x1.8494a75f057acp-2
V byp x 3 0x1.93856c48a243dp-5 -0x1.dd356bbb950d2p-4
p 0x1.277eb842d7495p-2""",
    ("chain", "scattering"): """\
H cav mm 0 0x1.53265bfd8788bp-4 -0x1.06c9c3e5b062cp-5
V cav mm 0 -0x1.2acee4c8d610bp-5 -0x1.250dec2b6fd1bp-3
H cav mx 0 0x1.7861e07def0b8p-5 -0x1.bafc65413f66ap-8
V cav mx 0 -0x1.07a5837810ef8p-9 -0x1.3c38c30d31c19p-4
H cav xm 0 0x1.59ccc73ce9c7ep-5 -0x1.1bc10c771cc74p-4
V cav xm 0 0x0.0p+0 0x0.0p+0
H cav xx 0 0x1.e44a6f5e8e62cp-6 -0x1.f2a4fa19d0b27p-6
H cav mm 1 0x1.13706c5514e48p-6 -0x1.b781aa22f3774p-4
V cav mm 1 -0x1.81dadb4ec238ep-4 0x1.886121f7f8ceap-7
H cav mx 1 -0x1.bafc65413f66ap-8 -0x1.7861e07def0b8p-5
V cav mx 1 -0x1.3c38c30d31c19p-4 0x1.07a5837810ef8p-9
H cav xm 1 -0x1.7207b09468d11p-5 -0x1.7ce36f561024cp-5
V cav xm 1 0x1.8af4d0b3a17aep-6 -0x1.18b540c932e70p-8
H cav xx 1 -0x1.f2a4fa19d0b27p-6 -0x1.e44a6f5e8e62cp-6
H cav mm 2 0x1.349aebf3fe463p-4 0x1.80f7840bd56c4p-5
V cav mm 2 -0x1.7b3e9ba2d9173p-4 0x1.d73043b7a89c0p-4
H cav mx 2 0x1.0e20c40548f79p-5 0x1.0be1c5997414bp-5
V cav mx 2 -0x1.f011698d68932p-5 0x1.88a5fd6f6fc12p-5
H cav xm 2 0x1.4abe45be5d283p-4 -0x1.feeb7c8b3c132p-8
V cav xm 2 0x0.0p+0 0x0.0p+0
H cav xx 2 0x1.58beb8a6b1650p-5 0x1.60fbd8f09f8fap-8
H cav mm 3 -0x1.139298caaa8a4p-5 0x1.11704710c7a70p-5
V cav mm 3 0x1.9face99e39d9ap-7 -0x1.22644b60aa00ap-3
H cav mx 3 -0x1.7861e07def0b8p-5 0x1.bafc65413f66ap-8
V cav mx 3 -0x1.07a5837810ef8p-9 -0x1.3c38c30d31c19p-4
H cav xm 3 -0x1.7ce36f561024cp-5 0x1.7207b09468d11p-5
V cav xm 3 -0x1.18b540c932e70p-8 -0x1.8af4d0b3a17aep-6
H cav xx 3 -0x1.e44a6f5e8e62cp-6 0x1.f2a4fa19d0b27p-6
V byp mm 0 0x0.0p+0 0x1.5b8e9fbff43a6p-2
V byp mx 0 0x1.43efd3c68d915p-3 0x1.f7c294720ab1ep-5
V byp xm 0 -0x1.68eb9a017db3dp-5 0x1.aad412fe321a0p-4
V byp xx 0 0x1.4c6dfc1135cc6p-5 0x1.42dc4a3f09974p-5
V byp mm 1 0x1.5b8e9fbff43a6p-2 0x0.0p+0
V byp mx 1 0x1.f7c294720ab1ep-5 -0x1.43efd3c68d915p-3
V byp xm 1 0x1.aad412fe321a0p-4 0x1.68eb9a017db3dp-5
V byp xx 1 0x1.42dc4a3f09974p-5 -0x1.4c6dfc1135cc6p-5
V byp mm 2 -0x1.160bb2fff6952p-2 0x1.a1118c7ff1df9p-3
V byp mx 2 0x1.7670b8b47e67dp-5 0x1.4eb6a61659422p-3
V byp xm 2 -0x1.c1bd23cbcdcadp-4 0x1.beea6a5faf1e8p-6
V byp xx 2 -0x1.d6a52140d4c06p-8 0x1.cba8f63397317p-5
V byp mm 3 0x0.0p+0 -0x1.5b8e9fbff43a6p-2
V byp mx 3 -0x1.43efd3c68d915p-3 -0x1.f7c294720ab1ep-5
V byp xm 3 0x1.68eb9a017db3dp-5 -0x1.aad412fe321a0p-4
V byp xx 3 -0x1.4c6dfc1135cc6p-5 -0x1.42dc4a3f09974p-5
p 0x1.8f0a24c672ce3p-3""",
    ("chain", "scattering_bit_1"): """\
H cav mm 0 0x1.53265bfd8788bp-4 -0x1.06c9c3e5b062cp-5
V cav mm 0 -0x1.2acee4c8d610bp-5 -0x1.250dec2b6fd1bp-3
H cav mx 0 0x1.7861e07def0b8p-5 -0x1.bafc65413f66ap-8
V cav mx 0 -0x1.07a5837810ef8p-9 -0x1.3c38c30d31c19p-4
H cav xm 0 0x1.59ccc73ce9c7ep-5 -0x1.1bc10c771cc74p-4
V cav xm 0 0x0.0p+0 0x0.0p+0
H cav xx 0 0x1.e44a6f5e8e62cp-6 -0x1.f2a4fa19d0b27p-6
H cav mm 1 -0x1.06c9c3e5b062cp-5 -0x1.53265bfd8788bp-4
V cav mm 1 -0x1.250dec2b6fd1bp-3 0x1.2acee4c8d610bp-5
H cav mx 1 -0x1.bafc65413f66ap-8 -0x1.7861e07def0b8p-5
V cav mx 1 -0x1.3c38c30d31c19p-4 0x1.07a5837810ef8p-9
H cav xm 1 -0x1.1bc10c771cc74p-4 -0x1.59ccc73ce9c7ep-5
V cav xm 1 0x0.0p+0 0x0.0p+0
H cav xx 1 -0x1.f2a4fa19d0b27p-6 -0x1.e44a6f5e8e62cp-6
H cav mm 2 0x1.80182e209fa4fp-5 0x1.c328e326eb860p-8
V cav mm 2 -0x1.efcd7086878aep-4 0x1.32e70fe42c9e4p-4
H cav mx 2 0x1.0e20c40548f79p-5 0x1.0be1c5997414bp-5
V cav mx 2 -0x1.f011698d68932p-5 0x1.88a5fd6f6fc12p-5
H cav xm 2 0x1.06474e6ec85eap-4 0x1.4ac556159e7fep-7
V cav xm 2 -0x1.11dbdd3e53262p-6 0x1.251d8a2d9e44bp-6
H cav xx 2 0x1.58beb8a6b1650p-5 0x1.60fbd8f09f8fap-8
H cav mm 3 -0x1.139298caaa8a4p-5 0x1.11704710c7a70p-5
V cav mm 3 0x1.9face99e39d9ap-7 -0x1.22644b60aa00ap-3
H cav mx 3 -0x1.7861e07def0b8p-5 0x1.bafc65413f66ap-8
V cav mx 3 -0x1.07a5837810ef8p-9 -0x1.3c38c30d31c19p-4
H cav xm 3 -0x1.7ce36f561024cp-5 0x1.7207b09468d11p-5
V cav xm 3 -0x1.18b540c932e70p-8 -0x1.8af4d0b3a17aep-6
H cav xx 3 -0x1.e44a6f5e8e62cp-6 0x1.f2a4fa19d0b27p-6
V byp mm 0 0x0.0p+0 0x1.5b8e9fbff43a6p-2
V byp mx 0 0x1.43efd3c68d915p-3 0x1.f7c294720ab1ep-5
V byp xm 0 -0x1.68eb9a017db3dp-5 0x1.aad412fe321a0p-4
V byp xx 0 0x1.4c6dfc1135cc6p-5 0x1.42dc4a3f09974p-5
V byp mm 1 0x1.5b8e9fbff43a6p-2 0x0.0p+0
V byp mx 1 0x1.f7c294720ab1ep-5 -0x1.43efd3c68d915p-3
V byp xm 1 0x1.aad412fe321a0p-4 0x1.68eb9a017db3dp-5
V byp xx 1 0x1.42dc4a3f09974p-5 -0x1.4c6dfc1135cc6p-5
V byp mm 2 -0x1.160bb2fff6952p-2 0x1.a1118c7ff1df9p-3
V byp mx 2 0x1.7670b8b47e67dp-5 0x1.4eb6a61659422p-3
V byp xm 2 -0x1.c1bd23cbcdcadp-4 0x1.beea6a5faf1e8p-6
V byp xx 2 -0x1.d6a52140d4c06p-8 0x1.cba8f63397317p-5
V byp mm 3 0x0.0p+0 -0x1.5b8e9fbff43a6p-2
V byp mx 3 -0x1.43efd3c68d915p-3 -0x1.f7c294720ab1ep-5
V byp xm 3 0x1.68eb9a017db3dp-5 -0x1.aad412fe321a0p-4
V byp xx 3 -0x1.4c6dfc1135cc6p-5 -0x1.42dc4a3f09974p-5
p 0x1.8b8fdabffa7b4p-3""",
    ("chain", "herald"): """\
H cav m 0 0x1.cb17e99a1e478p-5 0x1.93d6ebb34223ap-4
V cav m 0 0x1.643a881535063p-3 -0x1.2a936aa5fc463p-4
H cav x 0 0x1.86e04adef25d8p-4 0x1.4a85023288377p-5
H cav m 1 0x1.93d6ebb34223ap-4 -0x1.cb17e99a1e478p-5
V cav m 1 -0x1.2a936aa5fc463p-4 -0x1.643a881535063p-3
H cav x 1 0x1.4a85023288377p-5 -0x1.86e04adef25d8p-4
H cav m 2 -0x1.72afecf58adb0p-5 0x1.a9f0eadc66fecp-4
V cav m 2 -0x1.4d2ae2b584b97p-3 -0x1.86d20024bd794p-4
H cav x 2 0x1.99457cf96bbadp-6 0x1.9bdb5627eac1dp-4
H cav m 3 -0x1.cb17e99a1e478p-5 -0x1.93d6ebb34223ap-4
V cav m 3 0x1.643a881535063p-3 -0x1.2a936aa5fc463p-4
H cav x 3 -0x1.86e04adef25d8p-4 -0x1.4a85023288377p-5
V byp m 0 0x0.0p+0 0x1.a8603ed5eb0acp-2
V byp x 0 -0x1.b8b15843604a0p-5 0x1.0495873f4c3e5p-3
V byp m 1 0x1.a8603ed5eb0acp-2 0x0.0p+0
V byp x 1 0x1.0495873f4c3e5p-3 0x1.b8b15843604a0p-5
V byp m 2 -0x1.53803244bc08ap-2 0x1.fd404b671a0cdp-3
V byp x 2 -0x1.1292396ff1d6ap-3 0x1.10d8fdfb9d271p-5
V byp m 3 0x0.0p+0 -0x1.a8603ed5eb0acp-2
V byp x 3 0x1.b8b15843604a0p-5 -0x1.0495873f4c3e5p-3
p 0x1.ad45310199d39p-1""",
    ("chain", "measure_polarization"): """\
V cav m 0 0x1.d835c0c565b90p-2 -0x1.8bc95926cc2a4p-3
V cav m 1 -0x1.8bc95926cc2a4p-3 -0x1.d835c0c565b90p-2
V cav m 2 -0x1.b9a3fdb9284ccp-2 -0x1.030832abe0edbp-2
V cav m 3 0x1.d835c0c565b90p-2 -0x1.8bc95926cc2a4p-3
p 0x1.e898135dd799ep-4""",
}

EXPECTED_RUNS = {
    "cz_new": {
        "fidelity": "0x1.584e9da6cf891p-1",
        "success_probability": "0x1.f7aff02e22e53p-2",
        "p_loss": "0x1.5bd99c98fb8ddp-2",
        "v_amplitude": "0x1.8a370e7bc592cp-1",
        "h_amplitude": "0x1.46b5642486aeap-1",
        "no_herald": False,
    },
    "cz_old": {
        "fidelity": "0x1.1a85a30efa5dep-1",
        "success_probability": "0x1.22ca67ab92cdbp-1",
        "p_loss": "0x1.ba6b30a8da648p-2",
        "v_amplitude": None,
        "h_amplitude": None,
        "no_herald": False,
    },
    "remote_new": {
        "fidelity_v": "0x1.3a5295a857d3cp-2",
        "fidelity_h": "0x1.3a5295a857d3cp-2",
        "prob_v": "0x1.ce41f0307f1dap-4",
        "prob_h": "0x1.ce41f0307f1dap-4",
        "herald_probability": "0x1.ce41f0307f1dcp-3",
        "no_herald": False,
    },
}


@pytest.mark.parametrize("element", ELEMENTS)
@pytest.mark.parametrize("name", INPUTS)
def test_element_output_is_pinned(name, element):
    make, path, other = INPUTS[name]
    out = ELEMENTS[element](make(), path, other)
    assert _dump(out) == EXPECTED_ELEMENTS[name, element].split("\n")


@pytest.mark.parametrize("run", ["cz_new", "cz_old", "remote_new"])
def test_runner_result_is_pinned(run):
    assert _runs()[run] == EXPECTED_RUNS[run]
