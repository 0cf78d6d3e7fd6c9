"""Block executors: serial baseline, DAG, OCC, and DMVCC."""

from .base import BlockExecution, Executor, Receipt
from .serial import SerialExecutor, run_tx_serially
from .txprogram import (
    StorageIncrement,
    TxProgram,
    TxResult,
    TxStatus,
    transaction_program,
)

__all__ = [
    "BlockExecution",
    "Executor",
    "Receipt",
    "SerialExecutor",
    "StorageIncrement",
    "TxProgram",
    "TxResult",
    "TxStatus",
    "run_tx_serially",
    "transaction_program",
]

from .dag import DAGExecutor, build_conflict_dag
from .dmvcc import DMVCCExecutor
from .occ import OCCExecutor
from .replay import ScheduleReplayExecutor

# The one scheduler-name -> executor-class table; call sites select names
# from it.  (The sharded executor is added where ``repro.shard`` is already
# imported, so this package never imports it.)
EXECUTORS = {
    "serial": SerialExecutor,
    "dag": DAGExecutor,
    "occ": OCCExecutor,
    "dmvcc": DMVCCExecutor,
}

__all__ += ["DAGExecutor", "DMVCCExecutor", "EXECUTORS", "OCCExecutor",
            "ScheduleReplayExecutor", "build_conflict_dag"]
