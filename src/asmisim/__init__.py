"""asmisim: deterministic simulator for asynchronous change-driven sensing.

Sensors emit one fixed-size frame per threshold crossing of the parameter
they watch, routers batch and time-stamp what they hear, and a monitoring
center deduplicates, corrects receipt times, and reconstructs every
parameter as a stepped timeline with explicit uncertainty. A synchronous
polling baseline runs beside it for message-budget comparisons.
"""

from .baseline import AmiSample, ErrorReport, error_stats, matched_budget_interval, poll, reconstruct_ami
from .center import IngestOutcome, Liveness, MonitoringCenter
from .pi_protocol import MsgType, PiFrame, crc8, decode, encode
from .radio import Channel, ChannelSpec, CoverageMap, broadcast
from .router import ForwardedRecord, RouterState, flush, local_clock, receive, time_error_bound
from .runner import RunResult, run_scenario, write_outputs
from .scenario import Scenario, ScenarioValidationError, load, validate
from .sensor import SensorDescriptor, SensorMode, SensorState, heartbeat, observe, sampling_driver
from .signalgen import Signal, SignalKind, crossing_times, diurnal_signal, step_load_signal, value_at
from .simkernel import SimTime

__version__ = "0.1.0"

__all__ = [
    "AmiSample",
    "Channel",
    "ChannelSpec",
    "CoverageMap",
    "ErrorReport",
    "ForwardedRecord",
    "IngestOutcome",
    "Liveness",
    "MonitoringCenter",
    "MsgType",
    "PiFrame",
    "RouterState",
    "RunResult",
    "Scenario",
    "ScenarioValidationError",
    "SensorDescriptor",
    "SensorMode",
    "SensorState",
    "Signal",
    "SignalKind",
    "SimTime",
    "broadcast",
    "crc8",
    "crossing_times",
    "decode",
    "diurnal_signal",
    "encode",
    "error_stats",
    "flush",
    "heartbeat",
    "load",
    "local_clock",
    "matched_budget_interval",
    "observe",
    "poll",
    "receive",
    "reconstruct_ami",
    "run_scenario",
    "sampling_driver",
    "step_load_signal",
    "time_error_bound",
    "validate",
    "value_at",
    "write_outputs",
]
