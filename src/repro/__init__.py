"""repro -- a behavioral simulator of the Xerox Dorado processor.

Reproduces Lampson & Pier, *A Processor for a High-Performance Personal
Computer* (7th ISCA, 1980 / Xerox PARC CSL-81-1): the 16-task
microprogrammed processor with its two pipelines, data bypassing, Hold,
paged control store, and the memory / IFU / I-O subsystems it depends
on.  See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.

Quick start::

    from repro import Assembler, Processor, FF

    asm = Assembler()
    asm.register("acc", 1)
    asm.emit(r="acc", b=21, alu="B", load="RM")            # acc <- 21
    asm.emit(r="acc", a="RM", b=21, alu="ADD", load="RM")  # acc <- acc + 21
    asm.emit(r="acc", a="RM", b="RM", ff=FF.TRACE)         # trace it
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.run()
    assert cpu.console.trace == [42]

Higher-level entry points: :func:`repro.emulators.mesa.build_mesa_machine`
boots a Mesa byte-code emulator; :mod:`repro.graphics.bitblt` runs the
BitBlt microcode; :mod:`repro.perf.report` regenerates the paper's
evaluation numbers.
"""

from .asm import Assembler, Image, PlacementReport
from .config import MODEL0, PRODUCTION, STITCHWELD, MachineConfig
from .core import (
    ASel,
    BSel,
    Condition,
    FF,
    LoadControl,
    MicroInstruction,
    Processor,
)
from .errors import (
    AssemblyError,
    ConfigError,
    CorruptionDetected,
    DeviceError,
    DoradoError,
    EmulatorError,
    EncodingError,
    HoldTimeout,
    MicrocodeCrash,
    PlacementError,
    StateError,
    TransientFault,
    UnrecoverableFault,
)
from .fault import FaultConfig, InjectionPlan
from .state import MachineState, diff_states

__version__ = "1.0.0"

__all__ = [
    "ASel",
    "Assembler",
    "AssemblyError",
    "BSel",
    "Condition",
    "ConfigError",
    "CorruptionDetected",
    "DeviceError",
    "DoradoError",
    "EmulatorError",
    "EncodingError",
    "FaultConfig",
    "FF",
    "HoldTimeout",
    "Image",
    "InjectionPlan",
    "LoadControl",
    "MachineConfig",
    "MachineState",
    "MicroInstruction",
    "MicrocodeCrash",
    "MODEL0",
    "PlacementError",
    "PlacementReport",
    "PRODUCTION",
    "Processor",
    "STITCHWELD",
    "StateError",
    "TransientFault",
    "UnrecoverableFault",
    "__version__",
    "diff_states",
]
