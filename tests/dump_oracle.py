"""The row-at-a-time trajectory writer, kept as the oracle for ``sim.dump_trajectory_csv``.

It renders the whole file in memory through ``csv.writer``, formatting each
value with ``repr(float(...))``.  The streamed writer must produce the same
bytes, before any gzip compression.
"""

import csv
import io


def dump_bytes(records, decisions) -> bytes:
    """The CSV file ``sim.dump_trajectory_csv`` writes for these records, as bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "t_k", "X_k", "S_k", "W_k", "T_k", "t_dep_k", "Y_k"])
    for k in range(len(records)):
        writer.writerow(
            [
                k + 1,
                repr(float(records.arrival[k])),
                repr(float(records.interarrival[k])),
                repr(float(records.service[k])),
                repr(float(records.waiting[k])),
                repr(float(records.system[k])),
                repr(float(records.departure[k])),
                repr(float(records.interdeparture[k])),
            ]
        )
    writer.writerow(["j", "tau_j", "used_update", "aud"])
    for j in range(len(decisions)):
        writer.writerow(
            [
                j + 1,
                repr(float(decisions.epoch[j])),
                int(decisions.used_update[j]) + 1,
                repr(float(decisions.age[j])),
            ]
        )
    return buf.getvalue().encode()
