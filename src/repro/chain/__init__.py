"""Bitcoin chain substrate: data model, codec, block files, index, validation.

This subpackage is the stand-in for the real Bitcoin block chain plus the
block parser the paper builds on.  Everything downstream — clustering,
tagging, flow analysis — consumes :class:`~repro.chain.index.ChainIndex`.
"""

from .crypto import (
    KeyPair,
    base58check_encode,
    hash160,
    pubkey_hash_to_address,
    sha256d,
)
from .errors import (
    Base58Error,
    BlockStructureError,
    ChainError,
    ConservationError,
    DoubleSpendError,
    MissingInputError,
    ScriptError,
    SerializationError,
    TruncatedDataError,
    UnknownAddressError,
    UnknownTransactionError,
    ValidationError,
)
from .delta import BlockDelta, TxDelta
from .index import AddressRecord, ChainIndex, Receive, Spend, TxLocation
from .intern import AddressInterner
from .model import (
    COIN,
    COINBASE_TXID,
    COINBASE_VOUT,
    GENESIS_PREV_HASH,
    HALVING_INTERVAL,
    MAX_MONEY,
    Block,
    BlockHeader,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    block_subsidy,
    format_btc,
    merkle_root,
)
from .blockfile import BlockFileReader, BlockFileWriter
from .stats import ChainStatistics, compute_statistics, format_statistics
from .validation import ChainValidator, ValidationReport, validate_chain

__all__ = [
    "AddressInterner",
    "AddressRecord",
    "Base58Error",
    "Block",
    "BlockDelta",
    "BlockFileReader",
    "BlockFileWriter",
    "BlockHeader",
    "ChainStatistics",
    "BlockStructureError",
    "COIN",
    "COINBASE_TXID",
    "COINBASE_VOUT",
    "ChainError",
    "ChainIndex",
    "ChainValidator",
    "ConservationError",
    "DoubleSpendError",
    "GENESIS_PREV_HASH",
    "HALVING_INTERVAL",
    "KeyPair",
    "MAX_MONEY",
    "MissingInputError",
    "OutPoint",
    "Receive",
    "ScriptError",
    "SerializationError",
    "Spend",
    "Transaction",
    "TruncatedDataError",
    "TxDelta",
    "TxIn",
    "TxLocation",
    "TxOut",
    "UnknownAddressError",
    "UnknownTransactionError",
    "ValidationError",
    "ValidationReport",
    "base58check_encode",
    "block_subsidy",
    "compute_statistics",
    "format_statistics",
    "format_btc",
    "hash160",
    "merkle_root",
    "pubkey_hash_to_address",
    "sha256d",
    "validate_chain",
]
