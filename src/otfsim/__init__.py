"""Link-level simulator comparing delay-Doppler and OFDM waveforms.

The package models one frame at a time: payload coding and mapping,
grid assembly with embedded pilots, modulation to a sample stream,
a doubly selective multipath channel, pilot-based estimation, linear
equalization, and decoding.  Three waveforms share that chain: a
delay-Doppler frame sent as interleaved blocks under one prefix, the
same frame sent block-sequential, and a conventional multi-prefix OFDM
frame with configurable numerology.
"""

from .channel import (
    ChannelRealization,
    PathTap,
    TdlProfile,
    apply_channel,
    build_channel_matrix,
    load_profile,
    sample_channel,
)
from .equalization import EqualizedFrame, compute_llrs, lmmse_equalize, single_tap_equalize
from .estimation import ofdm_estimate, otfs_estimate
from .fec import LdpcCode, default_code, load_code
from .grid import (
    FrameParams,
    PilotConfig,
    desk_scale_params,
    full_scale_params,
)
from .harness import (
    LinkSimulator,
    RunConfig,
    WaveformSpec,
    load_config,
    run_papr,
    run_sweep,
)
from .mapping import Constellation, by_name, qam16, qam64, qpsk
from .metrics import BlerPoint, PaprAccumulator, cp_snr_loss_db, papr_db, wilson_interval
from .transforms import GridTransform, add_cp, deinterleave, interleave, remove_cp

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "PathTap",
    "TdlProfile",
    "apply_channel",
    "build_channel_matrix",
    "load_profile",
    "sample_channel",
    "EqualizedFrame",
    "compute_llrs",
    "lmmse_equalize",
    "single_tap_equalize",
    "ofdm_estimate",
    "otfs_estimate",
    "LdpcCode",
    "default_code",
    "load_code",
    "FrameParams",
    "PilotConfig",
    "desk_scale_params",
    "full_scale_params",
    "LinkSimulator",
    "RunConfig",
    "WaveformSpec",
    "load_config",
    "run_papr",
    "run_sweep",
    "Constellation",
    "by_name",
    "qam16",
    "qam64",
    "qpsk",
    "BlerPoint",
    "PaprAccumulator",
    "cp_snr_loss_db",
    "papr_db",
    "wilson_interval",
    "GridTransform",
    "add_cp",
    "deinterleave",
    "interleave",
    "remove_cp",
    "__version__",
]
