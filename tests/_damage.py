"""Damaged npz checkpoints: one-byte edits that zipfile refuses with an
error other than BadZipFile, and a table member that is only a header.

Each edit lands in the first central-directory entry (the record starting
with PK\\x01\\x02): the field's offset inside that entry, the new byte as a
function of the old one, and a phrase of the error zipfile raises.
"""

import io
import zipfile

from numpy.lib import format as npy_format

CENTRAL_ENTRY_EDITS = {
    "version_needed": (6, lambda old: 0xFF, "zip file version"),  # NotImplementedError
    "encrypted_flag": (8, lambda old: old | 0x01, "encrypted"),  # RuntimeError
    "compression_method": (10, lambda old: 99, "compression method"),  # NotImplementedError
}


def edit_central_entry(raw: bytes, field: str) -> bytes:
    offset, new, _ = CENTRAL_ENTRY_EDITS[field]
    at = raw.index(b"PK\x01\x02") + offset
    out = bytearray(raw)
    out[at] = new(out[at])
    return bytes(out)


def claim_table(path, shape, claimed_bytes: int) -> None:
    """Rewrite the checkpoint at path so that its embeddings member holds
    only a .npy header declaring a float64 table of shape, and the zip
    directory adds claimed_bytes to that member's size; every other member
    is kept byte for byte."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": tuple(shape)})
    members["embeddings.npy"] = header.getvalue()
    with zipfile.ZipFile(path, "w") as archive:
        for name, raw in members.items():
            archive.writestr(name, raw)
        # written into the central directory (as a zip64 field when large) at close
        archive.getinfo("embeddings.npy").file_size += claimed_bytes
