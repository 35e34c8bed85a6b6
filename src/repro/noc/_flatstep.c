/* The flat cores' steps, compiled.
 *
 * mesh_step(core, cycle) is FlatMeshCore.step (src/repro/noc/flatmesh.py):
 * head resolution, the output walk and the injection phase, written
 * out over the core's own Python objects.  tile_step(core, cycle) is
 * FlatTileCore.step (src/repro/tiles/flatcore.py): the timer heap, the
 * busy walk and the inlined pumps of Tile.step over the tiles' own
 * state.  Neither keeps state of its own: every list, deque, dict,
 * StagedFifo and tile they read or write is the one the Python readers
 * (check_invariants, the views, the fault hooks, the tracer, run_record)
 * see, so the module docstrings there are the specification of every
 * line below.  What a tile or the tracer may replace is called back
 * through Python (handlers, send, an object-mode step, tracer events,
 * route misses, stuck-grant tests); an exception any of them raises
 * propagates out of the step.
 *
 * tile_waker(core, busy, index) is the hook a tile core hands each
 * adopted tile: a callable that sets the tile's byte in busy, so
 * neither the mesh step's ejection wakes nor a tile's _wake() enters a
 * Python frame unless the core was idle.
 *
 * bind() hands over, once, the Python definitions the steps need (the
 * deque type, NocMessage, the handle format, ...), so nothing here
 * restates a constant of the Python side.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>

/* -- bound by bind() ----------------------------------------------------- */

static PyObject *Deque;        /* collections.deque */
static PyObject *Popleft;      /* deque.popleft, unbound */
static PyObject *Append;       /* deque.append, unbound */
static PyObject *NocMessage;
static PyObject *BytesLike;    /* (bytes, bytearray, memoryview) */
static PyObject *PortValues;   /* tuple: port name by port index */
static PyObject *NoRing;       /* what an unallocated ring slot holds */
static PyObject *Never;        /* repro.sim.kernel.NEVER */
static PyObject *FramingError; /* repro.noc.mesh.handle_framing_error */
static PyObject *NextPacketId; /* repro.noc.message.next_packet_id */
static long long FlitBytes, SeqShift, HeadBit, CountMask, NeverValue;
static Py_ssize_t NPorts;

/* -- attribute names ----------------------------------------------------- */

enum {
    A_RINGS, A_PUSHC, A_POPC, A_HW, A_HWC, A_GRANT, A_RR, A_RQ, A_REQ,
    A_DOWN, A_EJECTS, A_COORDS, A_FWD_OUT, A_UNRES, A_ACTIVE, A_INFLIGHT,
    A_ROUTE_ROWS, A_TRACER, A_FAULT_BLOCKED, A_DEPTH, A_WIDTH, A_HEIGHT,
    A_INJ, N_CORE_ATTRS,
    /* not read through a Fetch */
    A_RING_TOTAL = N_CORE_ATTRS, A_INJ_MASK, A_SEQ, A_ROUTE, A_FLIT_OF,
    A_ENABLED, A_LINK_STALL, A_FLIT_FORWARDED, A_DST, A_SRC, A_METADATA,
    A_DATA, A_N_META, A_MSG_ID, A_PACKET_ID, A_ITEMS, A_CAPACITY,
    A_HIGH_WATER, A_WAKERS, A_PENDING, A_SEND_QUEUE,
    A_MESSAGES_SENT, A_FLITS_INJECTED, S_WORMHOLE_STALL,
    S_CREDIT_EXHAUSTED,
    /* the tile step's */
    C_BUSY, C_FABRIC, C_TIMERS, C_DEADLINES, C_KERNEL_WAKE, C_OBSERVED,
    T_FROZEN, T_BUFFERED, T_BUFFER_FLITS, T_RX_READY, T_IN_SERVICE,
    T_EMIT_AT, T_MESSAGES_IN, T_BYTES_IN, T_SERVICE_CTX, T_MESSAGES_OUT,
    T_ENGINE_FREE, T_MAX_TX_BACKLOG, T_OCCUPANCY, T_PARSE_LATENCY,
    T_HANDLE_MESSAGE, T_SEND, T_STEP, T_SERVICE_CYCLES, P_FAULT_STALLED,
    P_FAULT_EJECT, P_FLITS_EJECTED, P_MESSAGES_RECEIVED, P_RECEIVE,
    M_ACTIVE, M_SEQ, E_MESSAGE_RECEIVED, E_BUFFER_LEVEL,
    E_PROCESSING_START, E_PROCESSING_END, N_NAMES
};

static const char *const NAME_TEXT[] = {
    "_rings", "_pushc", "_popc", "_hw", "_hwc", "_grant", "_rr", "_rq",
    "_req", "_down", "_ejects", "coords", "_fwd_out", "_unres", "_active",
    "_inflight", "_route_rows", "tracer", "_fault_blocked", "depth",
    "width", "height", "_inj",
    "_ring_total", "_inj_mask", "_seq", "_route", "flit_of", "enabled",
    "link_stall", "flit_forwarded", "dst", "src", "metadata", "data",
    "n_meta_flits", "msg_id", "packet_id", "_items", "capacity",
    "high_water", "_wakers", "_pending_flits",
    "_send_queue", "messages_sent", "flits_injected", "wormhole_stall",
    "credit_exhausted",
    "_busy", "_fabric", "_timers", "_deadlines", "_kernel_wake",
    "_observed",
    "_fault_frozen", "_buffered_flits", "buffer_flits", "_rx_ready",
    "_in_service", "_emit_at", "messages_in", "bytes_in", "_service_ctx",
    "messages_out", "_engine_free", "max_tx_backlog", "occupancy",
    "parse_latency", "handle_message", "send", "step", "service_cycles",
    "fault_stalled", "_fault_eject", "flits_ejected", "messages_received",
    "receive", "_active", "_seq", "message_received", "buffer_level",
    "processing_start", "processing_end",
};

_Static_assert(sizeof NAME_TEXT / sizeof *NAME_TEXT == N_NAMES,
               "one text per name");

static PyObject *Name[N_NAMES];

/* The core's attributes one step has read, each fetched on first use
 * and released when the step returns. */
typedef struct {
    PyObject *core;
    PyObject *dict;  /* the core's __dict__, once looked at */
    PyObject *v[N_CORE_ATTRS];
} Fetch;

/* core.<name>, a new reference.  The core's own attributes are a plain
 * dict lookup, cheaper than generic attribute lookup from C; anything
 * else, such as the class's default tracer, is looked up as usual. */
static PyObject *
core_attr(Fetch *f, PyObject *name)
{
    if (f->dict == NULL) {
        f->dict = PyObject_GenericGetDict(f->core, NULL);
        if (f->dict == NULL)
            return NULL;
    }
    PyObject *value = PyDict_GetItemWithError(f->dict, name);
    if (value != NULL)
        return Py_NewRef(value);
    return PyErr_Occurred() ? NULL : PyObject_GetAttr(f->core, name);
}

static PyObject *
get(Fetch *f, int k)
{
    if (f->v[k] == NULL)
        f->v[k] = core_attr(f, Name[k]);
    return f->v[k];
}

static PyObject *
get_list(Fetch *f, int k)
{
    PyObject *list = get(f, k);
    if (list != NULL && !PyList_Check(list)) {
        PyErr_Format(PyExc_TypeError, "flat mesh core: %U is not a list",
                     Name[k]);
        return NULL;
    }
    return list;
}

static int as_ll(PyObject *value, long long *out);

static int
get_scalar(Fetch *f, int k, long long *out)
{
    PyObject *value = get(f, k);
    return value == NULL ? -1 : as_ll(value, out);
}

static void
release(Fetch *f)
{
    for (int k = 0; k < N_CORE_ATTRS; k++)
        Py_CLEAR(f->v[k]);
    Py_CLEAR(f->dict);
}

/* -- small helpers ------------------------------------------------------- */

/* PyLong_AsLongLongAndOverflow, not PyLong_AsLongLong: in CPython 3.11
 * the latter takes a slow byte-array path for every int above 2**30,
 * which is every flit handle. */
static int
as_ll(PyObject *value, long long *out)
{
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (overflow) {
        PyErr_SetString(PyExc_OverflowError,
                        "int too large for the flat mesh step");
        return -1;
    }
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* list[i] as a C integer; i is in range (checked by the caller). */
static inline int
item(PyObject *list, Py_ssize_t i, long long *out)
{
    return as_ll(PyList_GET_ITEM(list, i), out);
}

static inline int
set_item(PyObject *list, Py_ssize_t i, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    return PyList_SetItem(list, i, obj);
}

/* list[i] = obj, for an object already at hand (the cycle). */
static inline void
set_object(PyObject *list, Py_ssize_t i, PyObject *obj)
{
    Py_INCREF(obj);
    PyObject *old = PyList_GET_ITEM(list, i);
    PyList_SET_ITEM(list, i, obj);
    Py_DECREF(old);
}

static int
append_ll(PyObject *list, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    int failed = PyList_Append(list, obj);
    Py_DECREF(obj);
    return failed;
}

static int
check_index(long long i, Py_ssize_t n)
{
    if (i < 0 || i >= n) {
        PyErr_Format(PyExc_IndexError,
                     "flat mesh index %lld out of range (0..%zd)", i, n - 1);
        return -1;
    }
    return 0;
}

static PyObject *
popleft(PyObject *deque)
{
    return PyObject_Vectorcall(Popleft, &deque, 1, NULL);
}

static int
push(PyObject *deque, PyObject *obj)
{
    PyObject *args[2] = {deque, obj};
    PyObject *none = PyObject_Vectorcall(Append, args, 2, NULL);
    if (none == NULL)
        return -1;
    Py_DECREF(none);
    return 0;
}

static int
push_ll(PyObject *deque, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    int failed = push(deque, obj);
    Py_DECREF(obj);
    return failed;
}

/* A flit's handle as a C integer.  Anything but an int got into a
 * queue some other way than LocalPort.send, and the error says so. */
static int
handle_of(PyObject *flit, long long fid, long long *out)
{
    if (!PyLong_CheckExact(flit)) {
        PyErr_Format(PyExc_TypeError,
                     "%R in input %lld of a flat mesh, whose queues hold "
                     "int handles: inject messages through LocalPort.send",
                     flit, fid);
        return -1;
    }
    return as_ll(flit, out);
}

static int
set_attr_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int failed = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return failed;
}

static int
attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int failed = as_ll(value, out);
    Py_DECREF(value);
    return failed;
}

/* obj.name += 1 */
static int
increment(PyObject *obj, PyObject *name)
{
    long long n;
    return attr_ll(obj, name, &n) || set_attr_ll(obj, name, n + 1) ? -1 : 0;
}

/* x != 0 */
static int
count_trailing_zeros(unsigned long long x)
{
    int n = 0;
    while (!(x & 1)) {
        x >>= 1;
        n++;
    }
    return n;
}

/* bisect.insort(active, ofid) */
static int
insort(PyObject *active, long long ofid)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(active);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long long v;
        if (item(active, mid, &v))
            return -1;
        if (ofid < v)
            hi = mid;
        else
            lo = mid + 1;
    }
    PyObject *obj = PyLong_FromLongLong(ofid);
    if (obj == NULL)
        return -1;
    int failed = PyList_Insert(active, lo, obj);
    Py_DECREF(obj);
    return failed;
}

/* active.remove(ofid), found by bisection: the list is sorted. */
static int
remove_sorted(PyObject *active, long long ofid)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(active);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long long v;
        if (item(active, mid, &v))
            return -1;
        if (v < ofid)
            lo = mid + 1;
        else
            hi = mid;
    }
    long long v;
    if (lo == PyList_GET_SIZE(active) || item(active, lo, &v) || v != ofid) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "list.remove(x): x not in list");
        return -1;
    }
    return PyList_SetSlice(active, lo, lo + 1, NULL);
}

/* -- head resolution ----------------------------------------------------- */

/* self._route(r, dst); the returned object is what the memo keeps. */
static PyObject *
call_route(Fetch *f, long long r, PyObject *dst, long long *want)
{
    PyObject *router = PyLong_FromLongLong(r);
    if (router == NULL)
        return NULL;
    PyObject *out = PyObject_CallMethodObjArgs(f->core, Name[A_ROUTE],
                                               router, dst, NULL);
    Py_DECREF(router);
    if (out != NULL && (as_ll(out, want) || check_index(*want, NPorts)))
        Py_CLEAR(out);
    return out;
}

/* The output port a head at router r takes to dst: memoised per
 * in-mesh destination, routed afresh off the mesh. */
static int
route(Fetch *f, long long r, PyObject *dst, long long width,
      long long height, long long *want)
{
    long long dx = -1, dy = -1;
    if (PyTuple_CheckExact(dst) && PyTuple_GET_SIZE(dst) == 2
            && PyLong_CheckExact(PyTuple_GET_ITEM(dst, 0))
            && PyLong_CheckExact(PyTuple_GET_ITEM(dst, 1))) {
        if (as_ll(PyTuple_GET_ITEM(dst, 0), &dx)
                || as_ll(PyTuple_GET_ITEM(dst, 1), &dy)) {
            /* Too large to be on the mesh. */
            PyErr_Clear();
            dx = dy = -1;
        }
    }
    if (!(0 <= dx && dx < width && 0 <= dy && dy < height)) {
        /* Off the mesh (a corrupted header): never memoised. */
        PyObject *out = call_route(f, r, dst, want);
        Py_XDECREF(out);
        return out == NULL ? -1 : 0;
    }
    PyObject *rows = get_list(f, A_ROUTE_ROWS);
    if (rows == NULL || check_index(r, PyList_GET_SIZE(rows)))
        return -1;
    PyObject *row = PyList_GET_ITEM(rows, r);
    if (row == Py_None) {
        row = PyDict_New();
        if (row == NULL)
            return -1;
        Py_INCREF(row);
        if (PyList_SetItem(rows, r, row)) {
            Py_DECREF(row);
            return -1;
        }
    } else if (PyDict_Check(row)) {
        Py_INCREF(row);
    } else {
        PyErr_Format(PyExc_TypeError,
                     "route row %lld is %R, not a dict", r, row);
        return -1;
    }
    int failed = -1;
    PyObject *key = PyLong_FromLongLong(dy * width + dx);
    if (key == NULL)
        goto done;
    PyObject *hit = PyDict_GetItemWithError(row, key);
    if (hit != NULL) {
        failed = as_ll(hit, want);
    } else if (!PyErr_Occurred()) {
        PyObject *out = call_route(f, r, dst, want);
        if (out != NULL) {
            failed = PyDict_SetItem(row, key, out);
            Py_DECREF(out);
        }
    }
done:
    Py_XDECREF(key);
    Py_DECREF(row);
    return failed;
}

/* Route every newly exposed head flit and file its request. */
static int
resolve_heads(Fetch *f)
{
    PyObject *unres = get_list(f, A_UNRES);
    PyObject *rings = get_list(f, A_RINGS);
    PyObject *inflight = get(f, A_INFLIGHT);
    PyObject *req = get_list(f, A_REQ);
    PyObject *rq = get_list(f, A_RQ);
    PyObject *grant = get_list(f, A_GRANT);
    PyObject *active = get_list(f, A_ACTIVE);
    long long width, height;
    if (!unres || !rings || !inflight || !req || !rq || !grant || !active
            || get_scalar(f, A_WIDTH, &width)
            || get_scalar(f, A_HEIGHT, &height))
        return -1;
    Py_ssize_t n5 = PyList_GET_SIZE(rings);
    if (PyList_GET_SIZE(req) != n5 || PyList_GET_SIZE(rq) != n5
            || PyList_GET_SIZE(grant) != n5) {
        PyErr_SetString(PyExc_ValueError,
                        "flat mesh core: per-port lists differ in length");
        return -1;
    }
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(unres); k++) {
        long long fid, bits, want, mask, owner;
        if (item(unres, k, &fid) || check_index(fid, n5))
            return -1;
        long long r = fid / NPorts, i = fid % NPorts;
        PyObject *flit = PySequence_GetItem(PyList_GET_ITEM(rings, fid), 0);
        if (flit == NULL)
            return -1;
        int failed = handle_of(flit, fid, &bits);
        Py_DECREF(flit);
        if (failed)
            return -1;
        if (bits < 0)
            bits = -bits;
        if (!(bits & HeadBit))
            /* A body flit with no wormhole to follow never moves. */
            continue;
        PyObject *seq = PyLong_FromLongLong(bits >> SeqShift);
        if (seq == NULL)
            return -1;
        PyObject *message = PyObject_GetItem(inflight, seq);
        Py_DECREF(seq);
        if (message == NULL)
            return -1;
        PyObject *dst = PyObject_GetAttr(message, Name[A_DST]);
        Py_DECREF(message);
        if (dst == NULL)
            return -1;
        failed = route(f, r, dst, width, height, &want);
        Py_DECREF(dst);
        if (failed || set_item(req, fid, want))
            return -1;
        long long ofid = fid - i + want;
        if (check_index(ofid, n5) || item(rq, ofid, &mask) || item(grant, ofid, &owner))
            return -1;
        if (!mask && owner < 0 && insort(active, ofid))
            return -1;
        if (set_item(rq, ofid, mask | (1LL << i)))
            return -1;
    }
    return PyList_SetSlice(unres, 0, PyList_GET_SIZE(unres), NULL);
}

/* -- the output walk ----------------------------------------------------- */

/* What the walk reads, fetched once per step. */
typedef struct {
    PyObject *core, *cycle_obj;
    long long cycle, depth;
    Py_ssize_t n5;
    PyObject *rings, *pushc, *popc, *hw, *hwc, *grant, *rr, *rq, *req;
    PyObject *down, *ejects, *coords, *fwd_out, *unres, *tracer;
    PyObject *fblocked;  /* None when no stuck-grant window is open */
    int traced;
    long long ring_total;
    long long *retired;
    Py_ssize_t n_retired, retired_cap;
} Walk;

static int
trace_call(Walk *w, long long ofid, PyObject *method, PyObject *last)
{
    PyObject *coord = PyList_GET_ITEM(w->coords, ofid / NPorts);
    PyObject *port = PyTuple_GET_ITEM(PortValues, ofid % NPorts);
    PyObject *out = PyObject_CallMethodObjArgs(
        w->tracer, method, w->cycle_obj, coord, port, last, NULL);
    Py_XDECREF(out);
    return out == NULL ? -1 : 0;
}

static int
retire(Walk *w, long long ofid)
{
    if (w->n_retired == w->retired_cap) {
        Py_ssize_t cap = w->retired_cap * 2 + 8;
        long long *grown = PyMem_Realloc(w->retired, cap * sizeof *grown);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->retired = grown;
        w->retired_cap = cap;
    }
    w->retired[w->n_retired++] = ofid;
    return 0;
}

/* Move at most one flit through output ofid. */
static int
walk_output(Walk *w, long long ofid)
{
    const long long cycle = w->cycle;
    PyObject *ring = NULL, *ring_down = NULL, *eject = NULL, *items = NULL;
    PyObject *flit = NULL;
    long long sfid, dfid, filled = 0, v = -1;
    int room, failed = -1;

    if (check_index(ofid, w->n5) || item(w->grant, ofid, &sfid))
        return -1;
    if (sfid >= 0) {
        /* Locked wormhole: the owner's next flit, if here (one pushed
         * this cycle is not here yet). */
        if (check_index(sfid, w->n5))
            return -1;
        ring = PyList_GET_ITEM(w->rings, sfid);
        Py_ssize_t n = PyObject_Size(ring);
        if (n < 0 || (n < 2 && n > 0 && item(w->pushc, sfid, &v)))
            return -1;
        if (n < 2 && (!n || v == cycle))
            return 0;
        Py_INCREF(ring);
    }
    if (item(w->down, ofid, &dfid))
        goto out;
    if (dfid >= 0) {
        /* Lagged credit return: occupancy as of the last cycle
         * boundary. */
        if (check_index(dfid, w->n5))
            goto out;
        ring_down = PyList_GET_ITEM(w->rings, dfid);
        Py_ssize_t n = PyObject_Size(ring_down);
        if (n < 0 || item(w->popc, dfid, &v))
            goto out;
        filled = n;
        room = filled + (v == cycle) < w->depth;
    } else if (dfid == -2) {
        eject = PyList_GET_ITEM(w->ejects, ofid / NPorts);
        if (eject == Py_None) {
            /* No port attached here: the head waits, as at an unwired
             * edge.  The None is borrowed; `out` must not release it. */
            eject = NULL;
            failed = 0;
            goto out;
        }
        Py_INCREF(eject);
        /* eject.can_accept() inlined: nothing is ever staged in an
         * ejection FIFO. */
        PyObject *cap = PyObject_GetAttr(eject, Name[A_CAPACITY]);
        items = PyObject_GetAttr(eject, Name[A_ITEMS]);
        if (cap == NULL || items == NULL) {
            Py_XDECREF(cap);
            goto out;
        }
        Py_ssize_t n = PyObject_Size(items);
        long long capacity = 0;
        if (n < 0 || (cap != Py_None && as_ll(cap, &capacity))) {
            Py_DECREF(cap);
            goto out;
        }
        filled = n;
        room = cap == Py_None || filled < capacity;
        Py_DECREF(cap);
    } else {
        /* Unwired mesh-edge output: nothing to move into. */
        failed = 0;
        goto out;
    }
    int stuck = 0;
    if (room && w->fblocked != Py_None) {
        PyObject *key = PyLong_FromLongLong(ofid);
        if (key == NULL)
            goto out;
        stuck = PySequence_Contains(w->fblocked, key);
        Py_DECREF(key);
        if (stuck < 0)
            goto out;
    }
    if (!room || stuck) {
        /* No credit, or a stuck-grant fault. */
        if (w->traced)
            failed = trace_call(w, ofid, Name[A_LINK_STALL],
                                Name[sfid >= 0 ? S_WORMHOLE_STALL
                                               : S_CREDIT_EXHAUSTED]);
        else
            failed = 0;
        goto out;
    }
    if (sfid < 0) {
        /* Free output: round-robin among the waiting heads. */
        long long mask, start, in_index;
        if (item(w->rq, ofid, &mask) || item(w->rr, ofid, &start))
            goto out;
        if (!mask) {
            PyErr_SetString(PyExc_ValueError, "negative shift count");
            goto out;
        }
        long long ahead = (start >= 0 && start < 63) ? mask >> start : 0;
        in_index = ahead ? start + count_trailing_zeros(ahead)
                         : count_trailing_zeros(mask);
        if (set_item(w->rq, ofid, mask ^ (1LL << in_index))
                || set_item(w->rr, ofid,
                            in_index == NPorts - 1 ? 0 : in_index + 1))
            goto out;
        sfid = ofid - ofid % NPorts + in_index;
        if (check_index(sfid, w->n5))
            goto out;
        ring = PyList_GET_ITEM(w->rings, sfid);
        Py_INCREF(ring);
        /* Lock the output; a single-flit message releases it below. */
        if (set_item(w->grant, ofid, sfid) || set_item(w->req, sfid, -1))
            goto out;
        /* Credit the whole message now: the head's count + 1 (a lone
         * head-tail is negated with a zero count, so its masked bits
         * are 0 too).  Readers take back what is still upstream. */
        long long credited;
        flit = popleft(ring);
        if (flit == NULL || handle_of(flit, sfid, &v)
                || item(w->fwd_out, ofid, &credited)
                || set_item(w->fwd_out, ofid,
                            credited + (v & CountMask) + 1))
            goto out;
    } else {
        flit = popleft(ring);
        if (flit == NULL || handle_of(flit, sfid, &v))
            goto out;
    }
    const long long handle = v;
    set_object(w->popc, sfid, w->cycle_obj);
    if (item(w->hwc, sfid, &v))
        goto out;
    if (v == cycle) {
        /* Pushed (and raised) earlier this cycle: the mark records
         * end-of-cycle depth, one less after all. */
        if (item(w->hw, sfid, &v) || set_item(w->hw, sfid, v - 1))
            goto out;
    }
    if (dfid >= 0) {
        if (!filled) {
            if (ring_down == NoRing) {
                ring_down = PyObject_CallNoArgs(Deque);
                if (ring_down == NULL
                        || PyList_SetItem(w->rings, dfid, ring_down))
                    goto out;
            }
            if (item(w->req, dfid, &v))
                goto out;
            if (v == -2 && append_ll(w->unres, dfid))
                /* A head landed in an empty input. */
                goto out;
        }
        if (push(ring_down, flit))
            goto out;
        set_object(w->pushc, dfid, w->cycle_obj);
        filled += 1;
        if (item(w->hw, dfid, &v))
            goto out;
        if (filled > v) {
            if (set_item(w->hw, dfid, filled))
                goto out;
            set_object(w->hwc, dfid, w->cycle_obj);
        }
    } else {
        /* An unstaged push: the stamp keeps the flit from this cycle's
         * consumer.  Wake hooks fire on the empty -> non-empty edge. */
        if (push(items, flit)
                || PyObject_SetAttr(eject, Name[A_PUSHC], w->cycle_obj))
            goto out;
        if (!filled) {
            PyObject *wakers = PyObject_GetAttr(eject, Name[A_WAKERS]);
            if (wakers == NULL)
                goto out;
            if (!PyList_Check(wakers)) {
                PyErr_SetString(PyExc_TypeError, "_wakers is not a list");
                Py_DECREF(wakers);
                goto out;
            }
            for (Py_ssize_t k = 0; k < PyList_GET_SIZE(wakers); k++) {
                PyObject *waker = PyList_GET_ITEM(wakers, k);
                Py_INCREF(waker);
                PyObject *none = PyObject_CallNoArgs(waker);
                Py_DECREF(waker);
                if (none == NULL) {
                    Py_DECREF(wakers);
                    goto out;
                }
                Py_DECREF(none);
            }
            Py_DECREF(wakers);
        }
        if (attr_ll(eject, Name[A_HIGH_WATER], &v))
            goto out;
        if (filled >= v) {
            if (set_attr_ll(eject, Name[A_HIGH_WATER], filled + 1)
                    || PyObject_SetAttr(eject, Name[A_HWC], w->cycle_obj))
                goto out;
        }
        w->ring_total -= 1;
    }
    if (w->traced) {
        /* A tracer pays for the Flit objects it looks at, once per
         * message (flit_of). */
        PyObject *seen = PyObject_CallMethodObjArgs(
            w->core, Name[A_FLIT_OF], flit, NULL);
        if (seen == NULL)
            goto out;
        int fail = trace_call(w, ofid, Name[A_FLIT_FORWARDED], seen);
        Py_DECREF(seen);
        if (fail)
            goto out;
    }
    if (handle < 0) {
        if (set_item(w->grant, ofid, -1) || set_item(w->req, sfid, -2))
            goto out;
        Py_ssize_t behind = PyObject_Size(ring);
        if (behind < 0)
            goto out;
        /* The flit behind the tail (even one pushed this cycle) is the
         * next head; it is routed next cycle, as in Router.step. */
        if (behind && append_ll(w->unres, sfid))
            goto out;
        if (item(w->rq, ofid, &v) || (!v && retire(w, ofid)))
            goto out;
    }
    failed = 0;
out:
    Py_XDECREF(flit);
    Py_XDECREF(items);
    Py_XDECREF(eject);
    Py_XDECREF(ring);
    return failed;
}

static int
walk(Fetch *f, PyObject *cycle_obj, long long cycle)
{
    Walk w = {.core = f->core, .cycle_obj = cycle_obj, .cycle = cycle};
    w.rings = get_list(f, A_RINGS);
    w.pushc = get_list(f, A_PUSHC);
    w.popc = get_list(f, A_POPC);
    w.hw = get_list(f, A_HW);
    w.hwc = get_list(f, A_HWC);
    w.grant = get_list(f, A_GRANT);
    w.rr = get_list(f, A_RR);
    w.rq = get_list(f, A_RQ);
    w.req = get_list(f, A_REQ);
    w.down = get_list(f, A_DOWN);
    w.ejects = get_list(f, A_EJECTS);
    w.coords = get_list(f, A_COORDS);
    w.fwd_out = get_list(f, A_FWD_OUT);
    w.unres = get_list(f, A_UNRES);
    w.tracer = get(f, A_TRACER);
    w.fblocked = get(f, A_FAULT_BLOCKED);
    PyObject *active = get_list(f, A_ACTIVE);
    PyObject *total = NULL;
    if (!w.rings || !w.pushc || !w.popc || !w.hw || !w.hwc || !w.grant
            || !w.rr || !w.rq || !w.req || !w.down || !w.ejects
            || !w.coords || !w.fwd_out || !w.unres || !w.tracer
            || !w.fblocked || !active || get_scalar(f, A_DEPTH, &w.depth))
        return -1;
    w.n5 = PyList_GET_SIZE(w.rings);
    PyObject *per_port[] = {w.pushc, w.popc, w.hw, w.hwc, w.grant, w.rr,
                            w.rq, w.req, w.down, w.fwd_out};
    for (size_t k = 0; k < sizeof per_port / sizeof *per_port; k++) {
        if (PyList_GET_SIZE(per_port[k]) != w.n5) {
            PyErr_SetString(PyExc_ValueError,
                            "flat mesh core: per-port lists differ in length");
            return -1;
        }
    }
    if (PyList_GET_SIZE(w.ejects) * NPorts != w.n5
            || PyList_GET_SIZE(w.coords) * NPorts != w.n5) {
        PyErr_SetString(PyExc_ValueError,
                        "flat mesh core: per-router lists differ in length");
        return -1;
    }
    PyObject *enabled = PyObject_GetAttr(w.tracer, Name[A_ENABLED]);
    if (enabled == NULL)
        return -1;
    w.traced = PyObject_IsTrue(enabled);
    Py_DECREF(enabled);
    total = core_attr(f, Name[A_RING_TOTAL]);
    if (w.traced < 0 || total == NULL || as_ll(total, &w.ring_total)) {
        Py_XDECREF(total);
        return -1;
    }
    Py_DECREF(total);
    const long long ring_total = w.ring_total;
    int failed = 0;
    /* Ascending ofid == routers row-major, outputs in port order: the
     * object backend's visit (and trace) order. */
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(active); k++) {
        long long ofid;
        if (item(active, k, &ofid) || walk_output(&w, ofid)) {
            failed = -1;
            break;
        }
    }
    if (!failed && w.ring_total != ring_total)
        failed = set_attr_ll(f->core, Name[A_RING_TOTAL], w.ring_total);
    /* Nothing requests an output during the walk, so one that went
     * free and unrequested stays retired. */
    for (Py_ssize_t k = 0; !failed && k < w.n_retired; k++)
        failed = remove_sorted(active, w.retired[k]);
    PyMem_Free(w.retired);
    return failed;
}

/* -- injection ----------------------------------------------------------- */

/* Start the port's next message: file the receiver's copy under a new
 * sequence number and queue its handles (a head handle, a countdown,
 * the negated tail). */
static int
start_message(Fetch *f, PyObject *port, PyObject *pending,
              PyObject *message)
{
    PyObject *inflight = get(f, A_INFLIGHT);
    if (inflight == NULL)
        return -1;
    PyObject *data = PyObject_GetAttr(message, Name[A_DATA]);
    if (data == NULL)
        return -1;
    if (!PyBytes_CheckExact(data)) {
        int ok = PyObject_IsInstance(data, BytesLike);
        if (ok <= 0) {
            if (ok == 0)
                PyErr_SetString(PyExc_TypeError,
                                "DATA flit payload must be bytes-like");
            Py_DECREF(data);
            return -1;
        }
        Py_SETREF(data, PyBytes_FromObject(data));
        if (data == NULL)
            return -1;
    }
    int failed = -1;
    long long n_meta, seq;
    PyObject *args[7] = {NULL};
    PyObject *seq_obj = NULL, *copy = NULL;
    args[4] = PyObject_GetAttr(message, Name[A_N_META]);
    if (args[4] == NULL || as_ll(args[4], &n_meta)
            || attr_ll(f->core, Name[A_SEQ], &seq))
        goto done;
    seq_obj = PyLong_FromLongLong(seq + 1);
    if (seq_obj == NULL
            || PyObject_SetAttr(f->core, Name[A_SEQ], seq_obj))
        goto done;
    seq += 1;
    args[0] = PyObject_GetAttr(message, Name[A_DST]);
    args[1] = PyObject_GetAttr(message, Name[A_SRC]);
    args[2] = n_meta ? PyObject_GetAttr(message, Name[A_METADATA])
                     : Py_NewRef(Py_None);
    args[3] = Py_NewRef(data);
    args[5] = PyObject_GetAttr(message, Name[A_MSG_ID]);
    args[6] = PyObject_GetAttr(message, Name[A_PACKET_ID]);
    for (int k = 0; k < 7; k++)
        if (args[k] == NULL)
            goto done;
    copy = PyObject_Vectorcall(NocMessage, args, 7, NULL);
    if (copy == NULL || PyObject_SetItem(inflight, seq_obj, copy))
        goto done;
    long long base = seq << SeqShift;
    long long n = n_meta + (PyBytes_GET_SIZE(data) + FlitBytes - 1)
                           / FlitBytes;
    if (n) {
        if (push_ll(pending, base | HeadBit | n))
            goto done;
        for (long long handle = base + n - 1; handle > base; handle--)
            if (push_ll(pending, handle))
                goto done;
        if (push_ll(pending, -base))
            goto done;
    } else if (push_ll(pending, -(base | HeadBit))) {
        goto done;
    }
    failed = increment(port, Name[A_MESSAGES_SENT]);
done:
    for (int k = 0; k < 7; k++)
        Py_XDECREF(args[k]);
    Py_XDECREF(seq_obj);
    Py_XDECREF(copy);
    Py_DECREF(data);
    return failed;
}

/* core._inj_mask &= ~(1 << index): port index has nothing to inject. */
static int
port_idle(Fetch *f, Py_ssize_t index)
{
    PyObject *one = PyLong_FromLong(1);
    PyObject *shift = PyLong_FromSsize_t(index);
    PyObject *bit = one && shift ? PyNumber_Lshift(one, shift) : NULL;
    PyObject *keep = bit ? PyNumber_Invert(bit) : NULL;
    PyObject *now = keep ? core_attr(f, Name[A_INJ_MASK]) : NULL;
    PyObject *next = now ? PyNumber_And(now, keep) : NULL;
    int failed = next == NULL
                 || PyObject_SetAttr(f->core, Name[A_INJ_MASK], next);
    Py_XDECREF(one);
    Py_XDECREF(shift);
    Py_XDECREF(bit);
    Py_XDECREF(keep);
    Py_XDECREF(now);
    Py_XDECREF(next);
    return failed ? -1 : 0;
}

/* One port's injection cycle: LocalPort.step inlined, minus the
 * staging and the local FIFO's wake hooks.  This phase runs after the
 * walk, so a flit put straight into the committed queue cannot move
 * before the next cycle, and that FIFO's only waker is this core, which
 * its answer keeps due.  A port with nothing left to inject leaves the
 * mask. */
static int
inject_port(Fetch *f, PyObject *entry, Py_ssize_t index)
{
    PyObject *req = get_list(f, A_REQ), *unres = get_list(f, A_UNRES);
    if (req == NULL || unres == NULL)
        return -1;
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "an injection entry is (port, local fid, FIFO)");
        return -1;
    }
    PyObject *port = PyTuple_GET_ITEM(entry, 0);
    PyObject *fifo = PyTuple_GET_ITEM(entry, 2);
    long long lfid;
    if (as_ll(PyTuple_GET_ITEM(entry, 1), &lfid)
            || check_index(lfid, PyList_GET_SIZE(req)))
        return -1;
    Py_INCREF(port);
    Py_INCREF(fifo);
    int failed = -1;
    PyObject *pending = NULL, *send_queue = NULL, *items = NULL;
    PyObject *flit = NULL;
    Py_ssize_t n;
    pending = PyObject_GetAttr(port, Name[A_PENDING]);
    if (pending == NULL || (n = PyObject_Size(pending)) < 0)
        goto done;
    if (!n) {
        send_queue = PyObject_GetAttr(port, Name[A_SEND_QUEUE]);
        if (send_queue == NULL || (n = PyObject_Size(send_queue)) < 0)
            goto done;
        if (!n) {
            failed = port_idle(f, index);
            goto done;
        }
        PyObject *message = popleft(send_queue);
        if (message == NULL)
            goto done;
        int fail = start_message(f, port, pending, message);
        Py_DECREF(message);
        if (fail)
            goto done;
    }
    long long capacity, high, v;
    items = PyObject_GetAttr(fifo, Name[A_ITEMS]);
    if (items == NULL || (n = PyObject_Size(items)) < 0
            || attr_ll(fifo, Name[A_CAPACITY], &capacity))
        goto done;
    const long long occupancy = n;
    if (occupancy < capacity) {
        if (!occupancy) {
            if (item(req, lfid, &v) || (v == -2 && append_ll(unres, lfid)))
                goto done;
        }
        flit = popleft(pending);
        if (flit == NULL || push(items, flit)
                || increment(f->core, Name[A_RING_TOTAL]))
            goto done;
        if (attr_ll(fifo, Name[A_HIGH_WATER], &high)
                || (occupancy >= high
                    && set_attr_ll(fifo, Name[A_HIGH_WATER], occupancy + 1))
                || increment(port, Name[A_FLITS_INJECTED]))
            goto done;
        if ((n = PyObject_Size(pending)) < 0)
            goto done;
        if (!n) {
            Py_XSETREF(send_queue, PyObject_GetAttr(port, Name[A_SEND_QUEUE]));
            if (send_queue == NULL || (n = PyObject_Size(send_queue)) < 0
                    || (!n && port_idle(f, index)))
                goto done;
        }
    }
    failed = 0;
done:
    Py_XDECREF(flit);
    Py_XDECREF(items);
    Py_XDECREF(send_queue);
    Py_XDECREF(pending);
    Py_DECREF(fifo);
    Py_DECREF(port);
    return failed;
}

/* The injection phase: busy ports only, in attachment order (the set
 * bits of _inj_mask, LSB first). */
static int
inject(Fetch *f)
{
    PyObject *mask = core_attr(f, Name[A_INJ_MASK]);
    if (mask == NULL)
        return -1;
    int busy = PyObject_IsTrue(mask);
    PyObject *inj = busy > 0 ? get_list(f, A_INJ) : NULL;
    if (inj == NULL) {
        Py_DECREF(mask);
        return busy > 0 ? -1 : busy;
    }
    /* A bit per port: more than 64 on a large mesh, so the mask is
     * read as words. */
    Py_ssize_t n_ports = PyList_GET_SIZE(inj);
    Py_ssize_t n_words = n_ports / 64 + 1;
    uint64_t *words = PyMem_Calloc(n_words, sizeof *words);
    PyObject *sixty_four = PyLong_FromLong(64);
    int failed = 0;
    if (words == NULL || sixty_four == NULL) {
        if (words == NULL)
            PyErr_NoMemory();
        failed = -1;
    }
    for (Py_ssize_t k = 0; !failed && k < n_words; k++) {
        words[k] = PyLong_AsUnsignedLongLongMask(mask);
        if (words[k] == (uint64_t)-1 && PyErr_Occurred()) {
            failed = -1;
        } else {
            Py_SETREF(mask, PyNumber_Rshift(mask, sixty_four));
            failed = mask == NULL ? -1 : 0;
        }
    }
    Py_XDECREF(mask);
    Py_XDECREF(sixty_four);
    for (Py_ssize_t k = 0; !failed && k < n_words; k++) {
        for (uint64_t m = words[k]; m && !failed; m &= m - 1) {
            Py_ssize_t index = k * 64 + count_trailing_zeros(m);
            if (index >= n_ports) {
                PyErr_SetString(PyExc_IndexError,
                                "list index out of range");
                failed = -1;
            } else {
                failed = inject_port(f, PyList_GET_ITEM(inj, index), index);
            }
        }
    }
    PyMem_Free(words);
    return failed;
}

/* -- the tile step ------------------------------------------------------- */

/* An exception set aside while a `finally` runs, and put back after. */
#if PY_VERSION_HEX >= 0x030C0000
typedef PyObject *Pending;

static Pending
pending_take(void)
{
    return PyErr_GetRaisedException();
}

static void
pending_restore(Pending pending)
{
    PyErr_SetRaisedException(pending);
}

static void
pending_drop(Pending pending)
{
    Py_XDECREF(pending);
}
#else
typedef struct {
    PyObject *type, *value, *traceback;
} Pending;

static Pending
pending_take(void)
{
    Pending pending;
    PyErr_Fetch(&pending.type, &pending.value, &pending.traceback);
    return pending;
}

static void
pending_restore(Pending pending)
{
    PyErr_Restore(pending.type, pending.value, pending.traceback);
}

static void
pending_drop(Pending pending)
{
    Py_XDECREF(pending.type);
    Py_XDECREF(pending.value);
    Py_XDECREF(pending.traceback);
}
#endif

static int
attr_truth(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int result = PyObject_IsTrue(value);
    Py_DECREF(value);
    return result;
}

/* CALL(k, self, args...) is self.<Name[k]>(args...), looked up on the
 * instance, so a method it or its class replaces is the one called;
 * CALL_VOID drops the result (0, or -1 on an error). */
#define CALL(k, ...) call_method( \
    Name[k], (PyObject *[]){NULL, __VA_ARGS__}, \
    sizeof((PyObject *[]){__VA_ARGS__}) / sizeof(PyObject *))
#define CALL_VOID(k, ...) dropped(CALL(k, __VA_ARGS__))

/* stack[0] is scratch space the callee may use. */
static PyObject *
call_method(PyObject *name, PyObject **stack, size_t nargs)
{
    return PyObject_VectorcallMethod(
        name, stack + 1, nargs | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

static int
dropped(PyObject *result)
{
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* What one tile step reads of the core, fetched once. */
typedef struct {
    PyObject *core, *cycle_obj;
    long long cycle;
    PyObject *busy;       /* bytearray: byte i set == tiles[i] must step */
    PyObject *deadlines;  /* list: tile i's armed deadline, -1 unarmed */
    PyObject *timers;     /* list: heap of (deadline, index) */
} Tiles;

/* _fabric[i], unpacked; the visit holds the record, so the rest are
 * borrowed from it.  own is vars(tile). */
typedef struct {
    PyObject *record;
    PyObject *tile, *port, *eject, *items, *assembler, *mesh_core, *own;
    int fast, default_service;
} Rec;

static inline int
busy_at(PyObject *busy, Py_ssize_t i)
{
    return i < PyByteArray_GET_SIZE(busy) && PyByteArray_AS_STRING(busy)[i];
}

static inline void
set_busy(PyObject *busy, Py_ssize_t i, char value)
{
    if (i < PyByteArray_GET_SIZE(busy))
        PyByteArray_AS_STRING(busy)[i] = value;
}

/* A timer entry's (deadline, index).  Only the step pushes entries, and
 * only pairs of ints, so sifting runs no Python code. */
static int
timer_key(PyObject *entry, long long *deadline, long long *index)
{
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 2
            || !PyLong_CheckExact(PyTuple_GET_ITEM(entry, 0))
            || !PyLong_CheckExact(PyTuple_GET_ITEM(entry, 1))) {
        PyErr_Format(PyExc_TypeError,
                     "timer entry %R is not (deadline, index)", entry);
        return -1;
    }
    if (as_ll(PyTuple_GET_ITEM(entry, 0), deadline))
        return -1;
    return index == NULL ? 0 : as_ll(PyTuple_GET_ITEM(entry, 1), index);
}

/* a < b, as the tuples compare. */
static int
timer_less(PyObject *a, PyObject *b)
{
    long long da, ia, db, ib;
    if (timer_key(a, &da, &ia) || timer_key(b, &db, &ib))
        return -1;
    return da < db || (da == db && ia < ib);
}

/* heapq._siftdown: heap[pos] moves up towards start.  Items move as
 * pointers; on an error the list still holds each of them once. */
static int
sift_down(PyObject *heap, Py_ssize_t start, Py_ssize_t pos)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    int failed = 0;
    while (pos > start) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int less = timer_less(newitem, parent);
        if (less <= 0) {
            failed = less;
            break;
        }
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SET_ITEM(heap, pos, newitem);
    return failed;
}

/* heapq._siftup: the smaller child rises until heap[pos]'s old item
 * reaches a leaf, then sifts down into place. */
static int
sift_up(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t end = PyList_GET_SIZE(heap), start = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_ssize_t child = 2 * pos + 1;
    while (child < end) {
        Py_ssize_t right = child + 1;
        if (right < end) {
            int less = timer_less(PyList_GET_ITEM(heap, child),
                                  PyList_GET_ITEM(heap, right));
            if (less < 0) {
                PyList_SET_ITEM(heap, pos, newitem);
                return -1;
            }
            if (!less)
                child = right;
        }
        PyList_SET_ITEM(heap, pos, PyList_GET_ITEM(heap, child));
        pos = child;
        child = 2 * pos + 1;
    }
    PyList_SET_ITEM(heap, pos, newitem);
    return sift_down(heap, start, pos);
}

/* heapq.heappush(heap, (deadline, index)) */
static int
heap_push(PyObject *heap, long long deadline, Py_ssize_t index)
{
    PyObject *d = PyLong_FromLongLong(deadline);
    PyObject *i = d ? PyLong_FromSsize_t(index) : NULL;
    PyObject *entry = i ? PyTuple_Pack(2, d, i) : NULL;
    Py_XDECREF(d);
    Py_XDECREF(i);
    if (entry == NULL)
        return -1;
    int failed = PyList_Append(heap, entry);
    Py_DECREF(entry);
    return failed ? -1 : sift_down(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* heapq.heappop(heap), a new reference; the heap is not empty. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = Py_NewRef(PyList_GET_ITEM(heap, n - 1));
    if (PyList_SetSlice(heap, n - 1, n, NULL)) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    if (sift_up(heap, 0)) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* Arm tile i's timer for deadline (the next cycle at the earliest),
 * unless an equal-or-earlier (safe) wake is already queued. */
static int
arm(Tiles *s, Py_ssize_t i, long long deadline)
{
    long long armed;
    if (deadline <= s->cycle)
        deadline = s->cycle + 1;
    if (check_index(i, PyList_GET_SIZE(s->deadlines))
            || item(s->deadlines, i, &armed))
        return -1;
    if (armed != -1 && armed <= deadline)
        return 0;
    return set_item(s->deadlines, i, deadline)
           || heap_push(s->timers, deadline, i) ? -1 : 0;
}

/* tile.tracer if it is enabled (a new reference), else NULL; *failed
 * is -1 on an error, else 0. */
static PyObject *
enabled_tracer(Rec *r, int *failed)
{
    PyObject *tracer = PyObject_GetAttr(r->tile, Name[A_TRACER]);
    int on = tracer == NULL ? -1 : attr_truth(tracer, Name[A_ENABLED]);
    if (on <= 0) {
        Py_XDECREF(tracer);
        *failed = on < 0 ? -1 : 0;
        return NULL;
    }
    *failed = 0;
    return tracer;
}

/* tracer.buffer_level(cycle, tile, tile._buffered_flits) */
static int
trace_buffer_level(Tiles *s, Rec *r, PyObject *tracer)
{
    PyObject *level = PyObject_GetAttr(r->tile, Name[T_BUFFERED]);
    if (level == NULL)
        return -1;
    int failed = CALL_VOID(E_BUFFER_LEVEL, tracer, s->cycle_obj, r->tile,
                           level);
    Py_DECREF(level);
    return failed;
}

/* mesh_core.take(seq): its two dict pops. */
static PyObject *
take(PyObject *mesh_core, long long seq)
{
    PyObject *dict = PyObject_GenericGetDict(mesh_core, NULL);
    if (dict == NULL)
        return NULL;
    PyObject *key = PyLong_FromLongLong(seq), *message = NULL;
    PyObject *observed = PyDict_GetItemWithError(dict, Name[C_OBSERVED]);
    PyObject *inflight = observed == NULL ? NULL
        : PyDict_GetItemWithError(dict, Name[A_INFLIGHT]);
    if (key == NULL || inflight == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "a flat mesh core without its tables");
        goto done;
    }
    if (!PyDict_Check(observed) || !PyDict_Check(inflight)) {
        PyErr_SetString(PyExc_TypeError,
                        "a flat mesh core's tables are dicts");
        goto done;
    }
    Py_INCREF(observed);
    Py_INCREF(inflight);
    int failed = 0;
    if (PyDict_GET_SIZE(observed)) {
        /* _observed.pop(seq, None) */
        PyObject *flits = PyDict_GetItemWithError(observed, key);
        failed = flits == NULL ? PyErr_Occurred() != NULL
                               : PyDict_DelItem(observed, key);
    }
    if (!failed) {
        /* _inflight.pop(seq) */
        message = PyDict_GetItemWithError(inflight, key);
        if (message != NULL) {
            Py_INCREF(message);
            if (PyDict_DelItem(inflight, key))
                Py_CLEAR(message);
        } else if (!PyErr_Occurred()) {
            PyErr_SetObject(PyExc_KeyError, key);
        }
    }
    Py_DECREF(observed);
    Py_DECREF(inflight);
done:
    Py_XDECREF(key);
    Py_DECREF(dict);
    return message;
}

/* handle_framing_error(bits, assembler), raised. */
static int
framing_error(long long bits, PyObject *assembler)
{
    PyObject *b = PyLong_FromLongLong(bits);
    PyObject *error = b == NULL ? NULL
        : PyObject_CallFunctionObjArgs(FramingError, b, assembler, NULL);
    Py_XDECREF(b);
    if (error != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(error), error);
        Py_DECREF(error);
    }
    return -1;
}

/* The inlined eject pump once its guards have passed: count the flit
 * against the buffer, pop it (LocalPort.pop_flit and the handle branch
 * of LocalPort.receive, or port.receive itself under a fault filter)
 * and queue a completed message for pickup. */
static int
eject_flit(Tiles *s, Rec *r)
{
    long long v, handle;
    if (increment(r->tile, Name[T_BUFFERED]))
        return -1;
    PyObject *message = PyObject_GetAttr(r->port, Name[P_FAULT_EJECT]);
    if (message == NULL)
        return -1;
    if (message != Py_None) {
        /* A fault filter wants to see Flit objects. */
        Py_SETREF(message, CALL(P_RECEIVE, r->port, s->cycle_obj));
        if (message == NULL)
            return -1;
    } else {
        Py_CLEAR(message);
        PyObject *flit = popleft(r->items);
        if (flit == NULL)
            return -1;
        int failed = 0;
        if (!PyLong_CheckExact(flit)) {
            PyErr_Format(PyExc_TypeError,
                         "%R in a flat mesh's ejection FIFO, which holds "
                         "int handles", flit);
            failed = -1;
        }
        failed = failed || as_ll(flit, &handle);
        Py_DECREF(flit);
        if (failed || attr_ll(r->eject, Name[A_HWC], &v))
            return -1;
        if (v == s->cycle) {
            if (attr_ll(r->eject, Name[A_HIGH_WATER], &v)
                    || set_attr_ll(r->eject, Name[A_HIGH_WATER], v - 1)
                    || set_attr_ll(r->eject, Name[A_HWC], -1))
                return -1;
        }
        if (increment(r->port, Name[P_FLITS_EJECTED]))
            return -1;
        const long long bits = handle < 0 ? -handle : handle;
        const long long seq = bits >> SeqShift;
        int active = attr_truth(r->assembler, Name[M_ACTIVE]);
        if (active < 0)
            return -1;
        if (bits & HeadBit) {
            if (active)
                return framing_error(bits, r->assembler);
            if (PyObject_SetAttr(r->assembler, Name[M_ACTIVE], Py_True)
                    || set_attr_ll(r->assembler, Name[M_SEQ], seq))
                return -1;
        } else {
            if (!active)
                return framing_error(bits, r->assembler);
            if (attr_ll(r->assembler, Name[M_SEQ], &v))
                return -1;
            if (seq != v)
                return framing_error(bits, r->assembler);
        }
        if (handle >= 0)
            return 0;
        if (PyObject_SetAttr(r->assembler, Name[M_ACTIVE], Py_False)
                || increment(r->port, Name[P_MESSAGES_RECEIVED]))
            return -1;
        message = take(r->mesh_core, seq);
        if (message == NULL)
            return -1;
    }
    int failed = -1;
    PyObject *rx = NULL, *pair = NULL, *tracer = NULL;
    if (message == Py_None) {
        failed = 0;
        goto done;
    }
    rx = PyObject_GetAttr(r->tile, Name[T_RX_READY]);
    pair = rx == NULL ? NULL : PyTuple_Pack(2, s->cycle_obj, message);
    if (pair == NULL || push(rx, pair))
        goto done;
    tracer = enabled_tracer(r, &failed);
    if (tracer != NULL)
        failed = CALL_VOID(E_MESSAGE_RECEIVED, tracer, s->cycle_obj, r->tile,
                           message)
                 || trace_buffer_level(s, r, tracer) ? -1 : 0;
done:
    Py_XDECREF(tracer);
    Py_XDECREF(pair);
    Py_XDECREF(rx);
    Py_DECREF(message);
    return failed;
}

/* handle_message(in_service, cycle), each output through send(), then
 * _service_ctx back to None whatever happened: the try/finally of
 * Tile._finish_service. */
static int
run_handler(Tiles *s, Rec *r, PyObject *in_service)
{
    PyObject *outputs = CALL(T_HANDLE_MESSAGE, r->tile, in_service,
                             s->cycle_obj);
    int failed = outputs == NULL ? -1 : 0;
    if (!failed) {
        int any = PyObject_IsTrue(outputs);
        PyObject *iter = any > 0 ? PyObject_GetIter(outputs) : NULL;
        if (any < 0 || (any && iter == NULL))
            failed = -1;
        for (PyObject *out; iter != NULL && (out = PyIter_Next(iter));) {
            failed = CALL_VOID(T_SEND, r->tile, out);
            Py_DECREF(out);
            if (failed)
                break;
        }
        if (!failed && PyErr_Occurred())
            failed = -1;
        Py_XDECREF(iter);
        Py_DECREF(outputs);
    }
    if (!failed)
        return PyObject_SetAttr(r->tile, Name[T_SERVICE_CTX], Py_None);
    Pending pending = pending_take();
    if (PyObject_SetAttr(r->tile, Name[T_SERVICE_CTX], Py_None))
        pending_drop(pending);  /* the finally's own error wins */
    else
        pending_restore(pending);
    return -1;
}

/* Service finish: Tile._finish_service inlined (the handler and send
 * through the instance), then the engine is free of the message. */
static int
finish_service(Tiles *s, Rec *r, PyObject *in_service)
{
    long long v, n_meta;
    if (increment(r->tile, Name[T_MESSAGES_IN]))
        return -1;
    PyObject *data = PyObject_GetAttr(in_service, Name[A_DATA]);
    if (data == NULL)
        return -1;
    const Py_ssize_t size = PyObject_Size(data);
    Py_DECREF(data);
    if (size < 0 || attr_ll(r->tile, Name[T_BYTES_IN], &v)
            || set_attr_ll(r->tile, Name[T_BYTES_IN], v + size)
            || attr_ll(in_service, Name[A_N_META], &n_meta)
            || attr_ll(r->tile, Name[T_BUFFERED], &v))
        return -1;
    /* in_service.n_flits, inlined. */
    v -= 1 + n_meta + (size + FlitBytes - 1) / FlitBytes;
    if (set_attr_ll(r->tile, Name[T_BUFFERED], v > 0 ? v : 0))
        return -1;
    PyObject *packet_id = PyObject_GetAttr(in_service, Name[A_PACKET_ID]);
    if (packet_id == NULL)
        return -1;
    if (packet_id == Py_None) {
        Py_SETREF(packet_id, PyObject_CallNoArgs(NextPacketId));
        if (packet_id == NULL || PyObject_SetAttr(in_service,
                                                  Name[A_PACKET_ID],
                                                  packet_id)) {
            Py_XDECREF(packet_id);
            return -1;
        }
    }
    Py_DECREF(packet_id);
    PyObject *context = PyTuple_Pack(2, in_service, s->cycle_obj);
    if (context == NULL)
        return -1;
    int failed = PyObject_SetAttr(r->tile, Name[T_SERVICE_CTX], context);
    Py_DECREF(context);
    PyObject *sent_before = failed ? NULL
        : PyObject_GetAttr(r->tile, Name[T_MESSAGES_OUT]);
    if (sent_before == NULL || run_handler(s, r, in_service)) {
        Py_XDECREF(sent_before);
        return -1;
    }
    PyObject *tracer = enabled_tracer(r, &failed);
    if (tracer != NULL) {
        PyObject *now = PyObject_GetAttr(r->tile, Name[T_MESSAGES_OUT]);
        PyObject *sent = now == NULL ? NULL
                                     : PyNumber_Subtract(now, sent_before);
        failed = sent == NULL
                 || CALL_VOID(E_PROCESSING_END, tracer, s->cycle_obj,
                              r->tile, in_service, sent)
                 || trace_buffer_level(s, r, tracer) ? -1 : 0;
        Py_XDECREF(sent);
        Py_XDECREF(now);
        Py_DECREF(tracer);
    }
    Py_DECREF(sent_before);
    return failed ? -1
                  : PyObject_SetAttr(r->tile, Name[T_IN_SERVICE], Py_None);
}

/* port.tx_backlog, inlined: messages queued plus one mid-injection. */
static int
tx_backlog(Rec *r, long long *out)
{
    PyObject *queue = PyObject_GetAttr(r->port, Name[A_SEND_QUEUE]);
    if (queue == NULL)
        return -1;
    Py_ssize_t n = PyObject_Size(queue);
    Py_DECREF(queue);
    int pending = n < 0 ? -1 : attr_truth(r->port, Name[A_PENDING]);
    if (pending < 0)
        return -1;
    *out = n + pending;
    return 0;
}

/* rx[0][0]: the tail cycle of the oldest message waiting for pickup. */
static int
front_cycle(PyObject *rx, long long *out)
{
    PyObject *front = PySequence_GetItem(rx, 0);
    if (front == NULL)
        return -1;
    PyObject *cycle = PySequence_GetItem(front, 0);
    Py_DECREF(front);
    if (cycle == NULL)
        return -1;
    int failed = as_ll(cycle, out);
    Py_DECREF(cycle);
    return failed;
}

/* Engine pickup: the oldest waiting message, for the default occupancy
 * (inlined) or the one service_cycles gives. */
static int
pickup(Tiles *s, Rec *r, PyObject *rx)
{
    long long busy_cycles, latency;
    PyObject *front = popleft(rx);
    PyObject *message = front == NULL ? NULL : PySequence_GetItem(front, 1);
    Py_XDECREF(front);
    if (message == NULL)
        return -1;
    int failed = -1;
    int own = PyDict_Contains(r->own, Name[T_SERVICE_CYCLES]);
    if (own < 0)
        goto done;
    if (r->default_service && !own) {
        long long n_meta, occupancy;
        PyObject *data = PyObject_GetAttr(message, Name[A_DATA]);
        if (data == NULL)
            goto done;
        const Py_ssize_t size = PyObject_Size(data);
        Py_DECREF(data);
        if (size < 0 || attr_ll(message, Name[A_N_META], &n_meta)
                || attr_ll(r->tile, Name[T_OCCUPANCY], &occupancy))
            goto done;
        busy_cycles = 1 + n_meta + (size + FlitBytes - 1) / FlitBytes;
        if (busy_cycles < occupancy)
            busy_cycles = occupancy;
    } else {
        PyObject *cycles = CALL(T_SERVICE_CYCLES, r->tile, message);
        if (cycles == NULL)
            goto done;
        int bad = as_ll(cycles, &busy_cycles);
        Py_DECREF(cycles);
        if (bad)
            goto done;
    }
    if (PyObject_SetAttr(r->tile, Name[T_IN_SERVICE], message)
            || attr_ll(r->tile, Name[T_PARSE_LATENCY], &latency)
            || set_attr_ll(r->tile, Name[T_EMIT_AT],
                           s->cycle + (latency > 1 ? latency : 1))
            || set_attr_ll(r->tile, Name[T_ENGINE_FREE],
                           s->cycle + busy_cycles))
        goto done;
    PyObject *tracer = enabled_tracer(r, &failed);
    if (tracer != NULL) {
        failed = CALL_VOID(E_PROCESSING_START, tracer, s->cycle_obj,
                           r->tile, message);
        Py_DECREF(tracer);
    }
done:
    Py_DECREF(message);
    return failed;
}

/* Tile._due inlined, after the pumps: clear the busy byte and arm the
 * engine's next deadline, or keep the byte (flits to pump, or a blocked
 * injection to poll). */
static int
settle(Tiles *s, Rec *r, Py_ssize_t i, PyObject *rx)
{
    long long v, w;
    Py_ssize_t n = PyObject_Size(r->items);
    if (n)
        return n < 0 ? -1 : 0;  /* flits to pump (or a full buffer) */
    PyObject *in_service = PyObject_GetAttr(r->tile, Name[T_IN_SERVICE]);
    if (in_service == NULL)
        return -1;
    int serving = in_service != Py_None;
    Py_DECREF(in_service);
    if (serving) {
        set_busy(s->busy, i, 0);
        return attr_ll(r->tile, Name[T_EMIT_AT], &v) ? -1 : arm(s, i, v);
    }
    n = PyObject_Size(rx);
    if (n < 0)
        return -1;
    if (n) {
        if (tx_backlog(r, &v) || attr_ll(r->tile, Name[T_MAX_TX_BACKLOG], &w))
            return -1;
        if (v >= w)
            return 0;  /* only port progress, not a wake, unblocks it */
        if (front_cycle(rx, &v) || attr_ll(r->tile, Name[T_ENGINE_FREE], &w))
            return -1;
        set_busy(s->busy, i, 0);
        return arm(s, i, v > w ? v : w);
    }
    set_busy(s->busy, i, 0);
    return 0;
}

/* A fast-mode visit: Tile.step's pumps inlined (on_cycle is the base
 * no-op), then its _due. */
static int
visit_fast(Tiles *s, Rec *r, Py_ssize_t i)
{
    const long long cycle = s->cycle;
    long long v, w;
    /* The eject pump: a lone flit the mesh ejected this very cycle is
     * not here yet; mid-message is tested before the buffer. */
    Py_ssize_t n = PyObject_Size(r->items);
    if (n < 0)
        return -1;
    int ready = n > 1;
    if (n == 1) {
        if (attr_ll(r->eject, Name[A_PUSHC], &v))
            return -1;
        ready = v != cycle;
    }
    if (ready) {
        int pump = attr_truth(r->port, Name[P_FAULT_STALLED]);
        if (pump < 0)
            return -1;
        pump = !pump;
        if (pump) {
            pump = attr_truth(r->assembler, Name[M_ACTIVE]);
            if (pump < 0)
                return -1;
            if (!pump) {
                if (attr_ll(r->tile, Name[T_BUFFERED], &v)
                        || attr_ll(r->tile, Name[T_BUFFER_FLITS], &w))
                    return -1;
                pump = v < w;
            }
        }
        if (pump && eject_flit(s, r))
            return -1;
    }
    /* The process pump: finish, then pick up. */
    PyObject *in_service = PyObject_GetAttr(r->tile, Name[T_IN_SERVICE]);
    if (in_service == NULL)
        return -1;
    if (in_service != Py_None) {
        if (attr_ll(r->tile, Name[T_EMIT_AT], &v)) {
            Py_DECREF(in_service);
            return -1;
        }
        if (cycle >= v) {
            int failed = finish_service(s, r, in_service);
            Py_SETREF(in_service, Py_NewRef(Py_None));
            if (failed) {
                Py_DECREF(in_service);
                return -1;
            }
        }
    }
    int idle = in_service == Py_None;
    Py_DECREF(in_service);
    PyObject *rx = PyObject_GetAttr(r->tile, Name[T_RX_READY]);
    if (rx == NULL)
        return -1;
    int failed = -1;
    n = PyObject_Size(rx);
    if (n < 0)
        goto done;
    if (n && idle) {
        if (front_cycle(rx, &v))
            goto done;
        if (v <= cycle) {
            if (attr_ll(r->tile, Name[T_ENGINE_FREE], &v))
                goto done;
            if (cycle >= v) {
                if (tx_backlog(r, &v)
                        || attr_ll(r->tile, Name[T_MAX_TX_BACKLOG], &w))
                    goto done;
                if (v < w && pickup(s, r, rx))
                    goto done;
            }
        }
    }
    failed = settle(s, r, i, rx);
done:
    Py_DECREF(rx);
    return failed;
}

/* An object-mode visit: the tile's own step, whose answer the kernel
 * would have taken.  Its byte clears only over an empty FIFO (the
 * busy-byte invariant, whatever _due looks at); NEVER voids a timer
 * armed earlier, as the kernel's wake_at would. */
static int
visit_object(Tiles *s, Rec *r, Py_ssize_t i)
{
    PyObject *due = CALL(T_STEP, r->tile, s->cycle_obj);
    if (due == NULL)
        return -1;
    int failed = 0;
    if (due != Py_None) {
        long long deadline;
        Py_ssize_t n = PyObject_Size(r->items);
        if (n < 0 || (!n && as_ll(due, &deadline))) {
            failed = -1;
        } else if (!n) {
            set_busy(s->busy, i, 0);
            if (deadline != NeverValue)
                failed = arm(s, i, deadline);
            else if (check_index(i, PyList_GET_SIZE(s->deadlines)))
                failed = -1;
            else
                failed = set_item(s->deadlines, i, -1);
        }
    }
    Py_DECREF(due);
    return failed;
}

static int
unpack(PyObject *fabric, Py_ssize_t i, Rec *r)
{
    PyObject *record = PyList_GET_ITEM(fabric, i);
    if (!PyTuple_Check(record) || PyTuple_GET_SIZE(record) != 9
            || !PyDict_Check(PyTuple_GET_ITEM(record, 8))) {
        PyErr_Format(PyExc_TypeError,
                     "tile record %zd is not (tile, port, eject, items, "
                     "assembler, mesh core, fast, default service, "
                     "vars(tile))", i);
        return -1;
    }
    r->record = Py_NewRef(record);
    r->tile = PyTuple_GET_ITEM(record, 0);
    r->port = PyTuple_GET_ITEM(record, 1);
    r->eject = PyTuple_GET_ITEM(record, 2);
    r->items = PyTuple_GET_ITEM(record, 3);
    r->assembler = PyTuple_GET_ITEM(record, 4);
    r->mesh_core = PyTuple_GET_ITEM(record, 5);
    r->own = PyTuple_GET_ITEM(record, 8);
    r->fast = PyObject_IsTrue(PyTuple_GET_ITEM(record, 6));
    r->default_service = PyObject_IsTrue(PyTuple_GET_ITEM(record, 7));
    if (r->fast < 0 || r->default_service < 0) {
        Py_CLEAR(r->record);
        return -1;
    }
    return 0;
}

/* One visit to tile i: a frozen tile's clock is gated and it stays
 * busy (as Tile.step says). */
static int
visit(Tiles *s, PyObject *fabric, Py_ssize_t i)
{
    Rec r;
    if (unpack(fabric, i, &r))
        return -1;
    int frozen = attr_truth(r.tile, Name[T_FROZEN]);
    int failed = frozen < 0 ? -1
        : frozen ? 0
        : r.fast ? visit_fast(s, &r, i)
        : visit_object(s, &r, i);
    Py_DECREF(r.record);
    return failed;
}

/* core.<name> from the core's dict, checked to be of the right type
 * (a new reference). */
static PyObject *
tile_core_attr(PyObject *dict, int k, PyTypeObject *type)
{
    PyObject *value = PyDict_GetItemWithError(dict, Name[k]);
    if (value == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_AttributeError,
                         "flat tile core has no %U", Name[k]);
        return NULL;
    }
    if (Py_TYPE(value) != type) {
        PyErr_Format(PyExc_TypeError, "flat tile core: %U is not a %s",
                     Name[k], type->tp_name);
        return NULL;
    }
    return Py_NewRef(value);
}

static PyObject *
tile_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "tile_step(core, cycle)");
        return NULL;
    }
    if (Never == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "tile_step before bind()");
        return NULL;
    }
    Tiles s = {.core = args[0], .cycle_obj = args[1]};
    if (as_ll(args[1], &s.cycle))
        return NULL;
    PyObject *dict = PyObject_GenericGetDict(s.core, NULL);
    if (dict == NULL)
        return NULL;
    PyObject *result = NULL, *fabric = NULL;
    s.busy = tile_core_attr(dict, C_BUSY, &PyByteArray_Type);
    s.deadlines = s.busy ? tile_core_attr(dict, C_DEADLINES, &PyList_Type)
                         : NULL;
    s.timers = s.deadlines ? tile_core_attr(dict, C_TIMERS, &PyList_Type)
                           : NULL;
    fabric = s.timers ? tile_core_attr(dict, C_FABRIC, &PyList_Type) : NULL;
    if (fabric == NULL)
        goto done;
    /* Timers due: each still armed for its deadline sets its tile's
     * byte (a superseded entry is dropped on the way). */
    while (PyList_GET_SIZE(s.timers)) {
        long long deadline, index, armed;
        if (timer_key(PyList_GET_ITEM(s.timers, 0), &deadline, NULL))
            goto done;
        if (deadline > s.cycle)
            break;
        PyObject *entry = heap_pop(s.timers);
        int failed = entry == NULL || timer_key(entry, &deadline, &index)
                     || check_index(index, PyList_GET_SIZE(s.deadlines))
                     || item(s.deadlines, index, &armed);
        Py_XDECREF(entry);
        if (failed)
            goto done;
        if (armed == deadline) {
            if (set_item(s.deadlines, index, -1))
                goto done;
            set_busy(s.busy, index, 1);
        }
    }
    /* The walk, in adoption order.  A byte is read when the walk gets
     * to it, so a tile woken by one earlier in the walk steps this
     * cycle and one woken by a later tile keeps its byte for the next:
     * the in-core wake rule. */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(fabric); i++) {
        if (busy_at(s.busy, i) && visit(&s, fabric, i))
            goto done;
    }
    /* Due every cycle while a byte is set, else at the earliest live
     * timer (superseded entries are dropped lazily). */
    const char *bytes = PyByteArray_AS_STRING(s.busy);
    for (Py_ssize_t i = 0; i < PyByteArray_GET_SIZE(s.busy); i++) {
        if (bytes[i]) {
            result = Py_NewRef(Py_None);
            goto done;
        }
    }
    while (PyList_GET_SIZE(s.timers)) {
        long long deadline, index, armed;
        PyObject *top = PyList_GET_ITEM(s.timers, 0);
        if (timer_key(top, &deadline, &index)
                || check_index(index, PyList_GET_SIZE(s.deadlines))
                || item(s.deadlines, index, &armed))
            goto done;
        if (armed == deadline) {
            result = Py_NewRef(PyTuple_GET_ITEM(top, 0));
            goto done;
        }
        PyObject *entry = heap_pop(s.timers);
        if (entry == NULL)
            goto done;
        Py_DECREF(entry);
    }
    result = Py_NewRef(Never);
done:
    Py_XDECREF(fabric);
    Py_XDECREF(s.timers);
    Py_XDECREF(s.deadlines);
    Py_XDECREF(s.busy);
    Py_DECREF(dict);
    return result;
}

/* -- the tile waker ------------------------------------------------------ */

/* The hook a tile core hands tile `index`: the ejection FIFO's waker
 * and the tile's _kernel_wake.  It sets the tile's busy byte and, if
 * the byte was clear, wakes the core through its own _kernel_wake (a
 * set byte means the core is not idle, so it is still scheduled). */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *core;
    PyObject *busy;
    Py_ssize_t index;
} Waker;

static PyObject *
waker_call(PyObject *self, PyObject *const *args, size_t nargsf,
           PyObject *kwnames)
{
    (void)args;
    Waker *w = (Waker *)self;
    if (PyVectorcall_NARGS(nargsf)
            || (kwnames != NULL && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "a tile waker takes no arguments");
        return NULL;
    }
    if (busy_at(w->busy, w->index))
        Py_RETURN_NONE;
    set_busy(w->busy, w->index, 1);
    PyObject *wake = PyObject_GetAttr(w->core, Name[C_KERNEL_WAKE]);
    if (wake == NULL || wake == Py_None)
        return wake;
    PyObject *none = PyObject_CallNoArgs(wake);
    Py_DECREF(wake);
    return none;
}

static int
waker_traverse(PyObject *self, visitproc visit, void *arg)
{
    Waker *w = (Waker *)self;
    Py_VISIT(w->core);
    Py_VISIT(w->busy);
    return 0;
}

static int
waker_clear(PyObject *self)
{
    Waker *w = (Waker *)self;
    Py_CLEAR(w->core);
    Py_CLEAR(w->busy);
    return 0;
}

static void
waker_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    waker_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
waker_repr(PyObject *self)
{
    return PyUnicode_FromFormat("<tile waker %zd>", ((Waker *)self)->index);
}

static PyTypeObject WakerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_flatstep.TileWaker",
    .tp_basicsize = sizeof(Waker),
    .tp_dealloc = waker_dealloc,
    .tp_vectorcall_offset = offsetof(Waker, vectorcall),
    .tp_repr = waker_repr,
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Sets a flat tile core's busy byte; wakes the core if idle.",
    .tp_traverse = waker_traverse,
    .tp_clear = waker_clear,
};

static PyObject *
tile_waker(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *core, *busy;
    Py_ssize_t index;
    if (!PyArg_ParseTuple(args, "OO!n:tile_waker", &core, &PyByteArray_Type,
                          &busy, &index))
        return NULL;
    if (index < 0) {
        PyErr_SetString(PyExc_ValueError, "a tile index is not negative");
        return NULL;
    }
    Waker *w = PyObject_GC_New(Waker, &WakerType);
    if (w == NULL)
        return NULL;
    w->vectorcall = waker_call;
    w->core = Py_NewRef(core);
    w->busy = Py_NewRef(busy);
    w->index = index;
    PyObject_GC_Track(w);
    return (PyObject *)w;
}

/* -- the module ---------------------------------------------------------- */

static PyObject *
mesh_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "mesh_step(core, cycle)");
        return NULL;
    }
    if (Deque == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "mesh_step before bind()");
        return NULL;
    }
    long long cycle;
    if (as_ll(args[1], &cycle))
        return NULL;
    Fetch f = {.core = args[0]};
    PyObject *result = NULL;
    PyObject *unres = get_list(&f, A_UNRES);
    if (unres == NULL || (PyList_GET_SIZE(unres) && resolve_heads(&f)))
        goto done;
    PyObject *active = get_list(&f, A_ACTIVE);
    if (active == NULL
            || (PyList_GET_SIZE(active) && walk(&f, args[1], cycle))
            || inject(&f))
        goto done;
    /* Due every cycle while a flit is in a router input or a port has
     * anything to inject. */
    for (int k = A_RING_TOTAL; k <= A_INJ_MASK; k++) {
        PyObject *value = core_attr(&f, Name[k]);
        int truth = value == NULL ? -1 : PyObject_IsTrue(value);
        Py_XDECREF(value);
        if (truth < 0)
            goto done;
        if (truth) {
            result = Py_NewRef(Py_None);
            goto done;
        }
    }
    result = Py_NewRef(Never);
done:
    release(&f);
    return result;
}

static PyObject *
bind(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *deque, *message, *bytes_like, *ports, *no_ring, *never;
    PyObject *framing_error, *next_packet_id;
    long long flit_bytes, seq_shift, head_bit, never_value;
    if (!PyArg_ParseTuple(args, "OOOO!OOLLLOO:bind", &deque, &message,
                          &bytes_like, &PyTuple_Type, &ports, &no_ring,
                          &never, &flit_bytes, &seq_shift, &head_bit,
                          &framing_error, &next_packet_id)
            || as_ll(never, &never_value))
        return NULL;
    PyObject *pop = PyObject_GetAttrString(deque, "popleft");
    PyObject *append = PyObject_GetAttrString(deque, "append");
    if (pop == NULL || append == NULL) {
        Py_XDECREF(pop);
        Py_XDECREF(append);
        return NULL;
    }
    Py_XSETREF(Popleft, pop);
    Py_XSETREF(Append, append);
    Py_XSETREF(NocMessage, Py_NewRef(message));
    Py_XSETREF(BytesLike, Py_NewRef(bytes_like));
    Py_XSETREF(PortValues, Py_NewRef(ports));
    Py_XSETREF(NoRing, Py_NewRef(no_ring));
    Py_XSETREF(Never, Py_NewRef(never));
    Py_XSETREF(FramingError, Py_NewRef(framing_error));
    Py_XSETREF(NextPacketId, Py_NewRef(next_packet_id));
    NeverValue = never_value;
    Py_XSETREF(Deque, Py_NewRef(deque));
    NPorts = PyTuple_GET_SIZE(ports);
    FlitBytes = flit_bytes;
    SeqShift = seq_shift;
    HeadBit = head_bit;
    CountMask = head_bit - 1;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"mesh_step", (PyCFunction)(void (*)(void))mesh_step, METH_FASTCALL,
     "mesh_step(core, cycle): one cycle of a FlatMeshCore."},
    {"tile_step", (PyCFunction)(void (*)(void))tile_step, METH_FASTCALL,
     "tile_step(core, cycle): one cycle of a FlatTileCore."},
    {"tile_waker", tile_waker, METH_VARARGS,
     "tile_waker(core, busy, index): the wake hook of a FlatTileCore's "
     "tile index."},
    {"bind", bind, METH_VARARGS,
     "bind(deque, NocMessage, bytes_like, port_values, no_ring, never, "
     "flit_bytes, seq_shift, head_bit, handle_framing_error, "
     "next_packet_id): the Python definitions the steps use."},
    {NULL, NULL, 0, NULL},
};

/* Multi-phase initialisation: the loader files nothing in sys.modules. */
static PyModuleDef_Slot slots[] = {
    {0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_flatstep",
    .m_doc = "The flat cores' steps, compiled (see src/repro/noc/flatmesh.py "
             "and src/repro/tiles/flatcore.py).",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__flatstep(void)
{
    if (PyType_Ready(&WakerType))
        return NULL;
    for (int k = 0; k < N_NAMES; k++) {
        if (Name[k] == NULL) {
            Name[k] = PyUnicode_InternFromString(NAME_TEXT[k]);
            if (Name[k] == NULL)
                return NULL;
        }
    }
    return PyModuleDef_Init(&module);
}
