"""Structural block/chain validation.

The simulator must emit a chain any real parser would accept, and the
re-parse pipeline must reject corrupted data.  This module checks the
consensus-shaped invariants that matter for the paper's analyses:

* block linkage (prev-hash chain) and merkle commitments;
* exactly one coinbase per block, placed first;
* every input resolves to an existing, unspent output (no double spends);
* value conservation: non-coinbase outputs never exceed inputs, and the
  coinbase claims at most subsidy + fees.

It deliberately skips proof-of-work (irrelevant to traceability) — the
paper's heuristics read the transaction graph, not difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    BlockStructureError,
    ConservationError,
    DoubleSpendError,
    MissingInputError,
)
from .model import (
    Block,
    GENESIS_PREV_HASH,
    HALVING_INTERVAL,
    OutPoint,
    Transaction,
    block_subsidy,
    merkle_root,
)


@dataclass
class ValidationReport:
    """Outcome of a full-chain validation run."""

    blocks_checked: int = 0
    txs_checked: int = 0
    total_fees: int = 0
    total_subsidy: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_transaction_structure(tx: Transaction) -> None:
    """Raise on malformed transaction shape."""
    if not tx.inputs:
        raise BlockStructureError(f"{tx.txid_hex}: transaction has no inputs")
    if not tx.outputs:
        raise BlockStructureError(f"{tx.txid_hex}: transaction has no outputs")
    if any(out.value < 0 for out in tx.outputs):
        raise ConservationError(f"{tx.txid_hex}: negative output value")
    coinbase_inputs = sum(1 for txin in tx.inputs if txin.is_coinbase)
    if coinbase_inputs and (coinbase_inputs != 1 or len(tx.inputs) != 1):
        raise BlockStructureError(
            f"{tx.txid_hex}: coinbase input mixed with regular inputs"
        )
    seen: set[OutPoint] = set()
    for txin in tx.inputs:
        if txin.is_coinbase:
            continue
        if txin.prevout in seen:
            raise DoubleSpendError(
                f"{tx.txid_hex}: spends the same outpoint twice internally"
            )
        seen.add(txin.prevout)


def check_block_structure(block: Block, *, prev_hash: bytes | None = None) -> None:
    """Raise on malformed block shape (coinbase placement, merkle, linkage)."""
    if not block.transactions:
        raise BlockStructureError(f"block {block.height}: no transactions")
    if not block.transactions[0].is_coinbase:
        raise BlockStructureError(f"block {block.height}: first tx is not a coinbase")
    for tx in block.transactions[1:]:
        if tx.is_coinbase:
            raise BlockStructureError(
                f"block {block.height}: coinbase after position 0"
            )
    expected_root = merkle_root([tx.txid for tx in block.transactions])
    if block.header.merkle_root != expected_root:
        raise BlockStructureError(f"block {block.height}: merkle root mismatch")
    if prev_hash is not None and block.header.prev_hash != prev_hash:
        raise BlockStructureError(f"block {block.height}: broken prev-hash linkage")


class ChainValidator:
    """Streaming validator maintaining its own UTXO view.

    Feed blocks in order via :meth:`add_block`; raises on the first
    violation.  Use :func:`validate_chain` for a collected report.
    """

    def __init__(self, *, halving_interval: int = HALVING_INTERVAL) -> None:
        self._utxos: dict[OutPoint, int] = {}
        self._prev_hash: bytes = GENESIS_PREV_HASH
        self._height = -1
        self._halving_interval = halving_interval
        self.total_fees = 0
        self.total_subsidy = 0

    def add_block(self, block: Block) -> None:
        """Validate and account one block."""
        if block.height != self._height + 1:
            raise BlockStructureError(
                f"expected height {self._height + 1}, got {block.height}"
            )
        check_block_structure(block, prev_hash=self._prev_hash)
        block_fees = 0
        for tx in block.transactions[1:]:
            block_fees += self._apply_tx(tx)
        subsidy = block_subsidy(block.height, halving_interval=self._halving_interval)
        coinbase = block.coinbase
        check_transaction_structure(coinbase)
        claimed = coinbase.total_output_value
        if claimed > subsidy + block_fees:
            raise ConservationError(
                f"block {block.height}: coinbase claims {claimed} > "
                f"subsidy {subsidy} + fees {block_fees}"
            )
        for vout, out in enumerate(coinbase.outputs):
            self._utxos[OutPoint(coinbase.txid, vout)] = out.value
        self.total_fees += block_fees
        self.total_subsidy += claimed
        self._prev_hash = block.hash
        self._height = block.height

    def _apply_tx(self, tx: Transaction) -> int:
        check_transaction_structure(tx)
        if tx.is_coinbase:
            raise BlockStructureError(f"{tx.txid_hex}: unexpected coinbase")
        in_value = 0
        for txin in tx.inputs:
            value = self._utxos.pop(txin.prevout, None)
            if value is None:
                raise MissingInputError(
                    f"{tx.txid_hex}: missing or already-spent input "
                    f"{txin.prevout.txid[::-1].hex()}:{txin.prevout.vout}"
                )
            in_value += value
        out_value = tx.total_output_value
        if out_value > in_value:
            raise ConservationError(
                f"{tx.txid_hex}: outputs {out_value} exceed inputs {in_value}"
            )
        for vout, out in enumerate(tx.outputs):
            self._utxos[OutPoint(tx.txid, vout)] = out.value
        return in_value - out_value


def validate_chain(
    blocks: Iterable[Block], *, halving_interval: int = HALVING_INTERVAL
) -> ValidationReport:
    """Validate a whole chain, collecting problems instead of raising."""
    validator = ChainValidator(halving_interval=halving_interval)
    report = ValidationReport()
    for block in blocks:
        try:
            validator.add_block(block)
        except Exception as exc:  # noqa: BLE001 - report, don't mask type
            report.problems.append(f"block {block.height}: {exc}")
            break
        report.blocks_checked += 1
        report.txs_checked += len(block.transactions)
    report.total_fees = validator.total_fees
    report.total_subsidy = validator.total_subsidy
    return report
