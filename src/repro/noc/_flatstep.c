/* The flat mesh's step, compiled.
 *
 * step(core, cycle) is FlatMeshCore.step (src/repro/noc/flatmesh.py):
 * head resolution, the output walk and the injection phase, written
 * out over the core's own Python objects.  It keeps no state of its
 * own: every list, deque, dict and StagedFifo it reads or writes is the
 * one the Python readers (forwarded, check_invariants, the ring views,
 * the fault hooks, the tracer) see, so the module docstring there is
 * the specification of every line below.  Tracing, stuck-grant tests,
 * route misses and ejection wakes call back into Python; an exception
 * any of them raises propagates out of step.
 *
 * bind() hands over, once, the Python definitions the step needs (the
 * deque type, NocMessage, the handle format, ...), so nothing here
 * restates a constant of the Python side.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
static long long FlitBytes, SeqShift, HeadBit, CountMask;
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
    S_CREDIT_EXHAUSTED, N_NAMES
};

static const char *const NAME_TEXT[N_NAMES] = {
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
};

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

/* -- the module ---------------------------------------------------------- */

static PyObject *
step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "step(core, cycle)");
        return NULL;
    }
    if (Deque == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "step before bind()");
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
    long long flit_bytes, seq_shift, head_bit;
    if (!PyArg_ParseTuple(args, "OOOO!OOLLL:bind", &deque, &message,
                          &bytes_like, &PyTuple_Type, &ports, &no_ring,
                          &never, &flit_bytes, &seq_shift, &head_bit))
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
    Py_XSETREF(Deque, Py_NewRef(deque));
    NPorts = PyTuple_GET_SIZE(ports);
    FlitBytes = flit_bytes;
    SeqShift = seq_shift;
    HeadBit = head_bit;
    CountMask = head_bit - 1;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(core, cycle): one cycle of a FlatMeshCore."},
    {"bind", bind, METH_VARARGS,
     "bind(deque, NocMessage, bytes_like, port_values, no_ring, never, "
     "flit_bytes, seq_shift, head_bit): the Python definitions the step "
     "uses."},
    {NULL, NULL, 0, NULL},
};

/* Multi-phase initialisation: the loader files nothing in sys.modules. */
static PyModuleDef_Slot slots[] = {
    {0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_flatstep",
    .m_doc = "The flat mesh's step, compiled (see src/repro/noc/flatmesh.py).",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__flatstep(void)
{
    for (int k = 0; k < N_NAMES; k++) {
        if (Name[k] == NULL) {
            Name[k] = PyUnicode_InternFromString(NAME_TEXT[k]);
            if (Name[k] == NULL)
                return NULL;
        }
    }
    return PyModuleDef_Init(&module);
}
