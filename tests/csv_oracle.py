"""The per-value trajectory CSV writer that ``dynamics.trajectory_to_csv``
replaced, kept as the oracle of its bytes: one ``repr(float(v))`` per
value, the whole text built in memory and returned.
"""
CSV_HEADER = "t,x,y,px,py,xhat,yhat,pxhat,pyhat"


def _fmt(v):
    return repr(float(v))


def trajectory_csv(traj):
    """The CSV text of a trajectory with both column sets."""
    lines = [CSV_HEADER]
    for i, t in enumerate(traj.times):
        row = [_fmt(t)] + [_fmt(v) for v in traj.states[i]]
        row += [_fmt(v) for v in traj.nc_states[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
