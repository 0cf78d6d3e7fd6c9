"""Block executors: serial baseline, DAG, OCC, and DMVCC."""

from .base import BlockExecution, Executor, Receipt
from .dag import DAGExecutor, build_conflict_dag
from .dmvcc import DMVCCExecutor
from .occ import OCCExecutor
from .replay import ScheduleReplayExecutor
from .serial import SerialExecutor, run_tx_serially
from .txprogram import (
    StorageIncrement,
    TxProgram,
    TxResult,
    TxStatus,
    transaction_program,
)

# The one scheduler-name -> executor-class table; executor_for() adds "sharded".
EXECUTORS = {
    "serial": SerialExecutor,
    "dag": DAGExecutor,
    "occ": OCCExecutor,
    "dmvcc": DMVCCExecutor,
}


def executor_for(scheduler: str) -> Executor:
    """A fresh executor by name: the table above plus ``sharded``
    (imported lazily, because ``repro.shard`` imports this package)."""
    if scheduler == "sharded":
        from ..shard import ShardedDMVCCExecutor

        return ShardedDMVCCExecutor()
    if scheduler not in EXECUTORS:
        raise ValueError(f"unknown scheduler {scheduler!r} "
                         f"(choose from {', '.join(EXECUTORS)}, sharded)")
    return EXECUTORS[scheduler]()


__all__ = [
    "BlockExecution", "DAGExecutor", "DMVCCExecutor", "EXECUTORS", "Executor",
    "OCCExecutor", "Receipt", "ScheduleReplayExecutor", "SerialExecutor",
    "StorageIncrement", "TxProgram", "TxResult", "TxStatus",
    "build_conflict_dag", "executor_for", "run_tx_serially",
    "transaction_program",
]
