"""One-byte edits of an npz checkpoint that zipfile refuses with an error
other than BadZipFile.

Each edit lands in the first central-directory entry (the record starting
with PK\\x01\\x02): the field's offset inside that entry, the new byte as a
function of the old one, and a phrase of the error zipfile raises.
"""

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
