/* The flat cores' steps and the scheduled kernel's clock, compiled.
 *
 * mesh_step(core, cycle) is FlatMeshCore.step (src/repro/noc/flatmesh.py):
 * head resolution, the output walk and the injection phase, written
 * out over the core's own Python objects.  tile_step(core, cycle) is
 * FlatTileCore.step (src/repro/tiles/flatcore.py): the pass over the
 * tiles' armed deadlines, the busy walk and the inlined pumps of
 * Tile.step over the tiles' own state.  Neither keeps state of its own:
 * every array, ring, list, dict, StagedFifo and tile they read or write
 * is the one the Python readers (check_invariants, the mesh's views, the
 * fault hooks, the tracer, run_record) see, so the module docstrings
 * there are the specification of every line below.
 *
 * Every queue of flit handles under a flat mesh is a Ring, defined
 * here and exposed as _flatstep.Ring: an int64 circular buffer with the
 * deque surface the Python readers use, so the steps move a flit as a
 * C integer and a reader indexes it as it did a deque.  The mesh's ten
 * per-output integer tables (_pushc, _popc, _hw, _hwc, _grant, _rr, _rq,
 * _req, _down, _fwd_out) are array('q')s, taken through the buffer
 * protocol once per step, and so is the tile core's _deadlines, one
 * entry per tile.  A flat queue that is not a Ring, or a table that is
 * not an array('q') of one entry per router input or tile, is a
 * TypeError or a ValueError: there is no fallback.  Queues of objects (a
 * port's _send_queue, a tile's _rx_ready) stay deques.
 *
 * What a tile or the tracer may replace is called back
 * through Python (handlers, send, an object-mode step, tracer events,
 * route misses, stuck-grant tests); an exception any of them raises
 * propagates out of the step.
 *
 * Both cores keep their busy set as a bytearray, one byte per member
 * (a tile, a port).  waker(core, busy, index) is the wake hook either
 * core hands member index: a callable that sets the member's byte and
 * calls core._kernel_wake only if the byte was clear, so neither the
 * mesh step's ejection wakes nor a send or a tile's _wake() enters a
 * Python frame unless the core was idle.  A router input, LOCAL
 * included, is a Ring the mesh step alone fills and drains, so no hook
 * sits on one: the ejection FIFOs are the only FIFOs a step wakes.
 *
 * tick(sim) and run(sim, end, condition, deadline) are the scheduled
 * CycleSimulator's tick and its run / run_until loop
 * (src/repro/sim/kernel.py), over the simulator's own attributes; they
 * step a flat core through mesh_step or tile_step directly.
 * kernel_waker(sim, component, slot) is the kernel's wake hook of a
 * slot.  It and a core's waker are one type, Waker, which differ only in
 * the function their vectorcall slot holds, so a core's waker wakes the
 * kernel's without a Python call.
 *
 * bind() hands over, once, the Python definitions the steps need (the
 * deque type for the queues of objects, NocMessage, the handle format,
 * ...), so nothing here restates a constant of the Python side.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>

/* -- bound by bind() ----------------------------------------------------- */

static PyObject *Popleft;      /* deque.popleft, unbound */
static PyObject *Append;       /* deque.append, unbound */
static PyObject *NocMessage;
static PyObject *BytesLike;    /* (bytes, bytearray, memoryview) */
static PyObject *PortValues;   /* tuple: port name by port index */
static PyObject *NoRing;       /* what an unallocated ring slot holds */
static PyObject *Never;        /* repro.sim.kernel.NEVER */
static PyObject *FramingError; /* repro.noc.mesh.handle_framing_error */
static PyObject *NextPacketId; /* repro.noc.message.next_packet_id */
static PyObject *KernelTick;   /* CycleSimulator.tick, the function */
static PyObject *Monotonic;    /* time.monotonic */
static PyObject *MeshCore;     /* FlatMeshCore, by step_directly() */
static PyObject *TileCore;     /* FlatTileCore, by step_directly() */
static long long FlitBytes, SeqShift, HeadBit, CountMask, NeverValue;
static Py_ssize_t NPorts;

/* -- attribute names ----------------------------------------------------- */

enum {
    /* the per-output int64 arrays, taken through the buffer protocol */
    A_PUSHC, A_POPC, A_HW, A_HWC, A_GRANT, A_RR, A_RQ, A_REQ, A_DOWN,
    A_FWD_OUT, N_ARRAYS,
    A_RINGS = N_ARRAYS, A_EJECTS, A_COORDS, A_UNRES, A_ACTIVE, A_INFLIGHT,
    A_ROUTE_ROWS, A_TRACER, A_FAULT_BLOCKED, A_DEPTH, A_WIDTH, A_HEIGHT,
    A_INJ, A_INJ_BUSY, N_CORE_ATTRS,
    /* not read through a Fetch */
    A_RING_TOTAL = N_CORE_ATTRS, A_SEQ, A_ROUTE, A_FLIT_OF,
    A_ENABLED, A_LINK_STALL, A_FLIT_FORWARDED, A_DST, A_SRC, A_METADATA,
    A_DATA, A_N_META, A_MSG_ID, A_PACKET_ID, A_ITEMS, A_CAPACITY,
    A_HIGH_WATER, A_WAKERS, A_PENDING, A_SEND_QUEUE,
    A_MESSAGES_SENT, A_FLITS_INJECTED, S_WORMHOLE_STALL,
    S_CREDIT_EXHAUSTED,
    /* the tile step's */
    C_BUSY, C_FABRIC, C_DEADLINES, C_KERNEL_WAKE, C_OBSERVED,
    T_FROZEN, T_BUFFERED, T_BUFFER_FLITS, T_RX_READY, T_IN_SERVICE,
    T_EMIT_AT, T_MESSAGES_IN, T_BYTES_IN, T_SERVICE_CTX, T_MESSAGES_OUT,
    T_ENGINE_FREE, T_MAX_TX_BACKLOG, T_OCCUPANCY, T_PARSE_LATENCY,
    T_HANDLE_MESSAGE, T_SEND, T_STEP, T_SERVICE_CYCLES, P_FAULT_STALLED,
    P_FAULT_EJECT, P_FLITS_EJECTED, P_MESSAGES_RECEIVED, P_RECEIVE,
    M_ACTIVE, M_SEQ, E_MESSAGE_RECEIVED, E_BUFFER_LEVEL,
    E_PROCESSING_START, E_PROCESSING_END,
    /* the clock's */
    K_CYCLE, K_STEPPING, K_COMPONENT_STEPS, K_IDLE_SKIPPED, K_COMPONENTS,
    K_WAKE_AT, K_TICK, K_CYCLE_START, K_MAX_CYCLES, K_WALL_CLOCK, N_NAMES
};

static const char *const NAME_TEXT[] = {
    "_pushc", "_popc", "_hw", "_hwc", "_grant", "_rr", "_rq", "_req",
    "_down", "_fwd_out",
    "_rings", "_ejects", "coords", "_unres", "_active",
    "_inflight", "_route_rows", "tracer", "_fault_blocked", "depth",
    "width", "height", "_inj", "_inj_busy",
    "_ring_total", "_seq", "_route", "flit_of", "enabled",
    "link_stall", "flit_forwarded", "dst", "src", "metadata", "data",
    "n_meta_flits", "msg_id", "packet_id", "_items", "capacity",
    "high_water", "_wakers", "_pending_flits",
    "_send_queue", "messages_sent", "flits_injected", "wormhole_stall",
    "credit_exhausted",
    "_busy", "_fabric", "_deadlines", "_kernel_wake",
    "_observed",
    "_fault_frozen", "_buffered_flits", "buffer_flits", "_rx_ready",
    "_in_service", "_emit_at", "messages_in", "bytes_in", "_service_ctx",
    "messages_out", "_engine_free", "max_tx_backlog", "occupancy",
    "parse_latency", "handle_message", "send", "step", "service_cycles",
    "fault_stalled", "_fault_eject", "flits_ejected", "messages_received",
    "receive", "_active", "_seq", "message_received", "buffer_level",
    "processing_start", "processing_end",
    "cycle", "_stepping", "component_steps", "idle_cycles_skipped",
    "_components", "_wake_at", "tick", "cycle_start", "max_cycles",
    "wall_clock_budget_s",
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
    Py_buffer q[N_ARRAYS];  /* the arrays' buffers; q[k].obj once taken */
    Py_ssize_t n5;          /* len(_rings): five inputs per router */
    long long ring_total;   /* _ring_total as this step moves flits */
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
get_typed(Fetch *f, int k, PyTypeObject *type)
{
    PyObject *value = get(f, k);
    if (value != NULL && !PyObject_TypeCheck(value, type)) {
        PyErr_Format(PyExc_TypeError, "flat mesh core: %U is not a %s",
                     Name[k], type->tp_name);
        return NULL;
    }
    return value;
}

#define get_list(f, k) get_typed(f, k, &PyList_Type)

/* value, a core's attribute Name[k], as its n C integers: an
 * array('q') (format 'q', n items), taken through the buffer protocol
 * into *view, which the caller releases.  Its errors name the core and
 * what one entry stands for. */
static long long *
take_q(PyObject *value, Py_buffer *view, Py_ssize_t n, int k,
       const char *core, const char *entry)
{
    if (!PyObject_CheckBuffer(value)
            || PyObject_GetBuffer(value, view, PyBUF_WRITABLE | PyBUF_FORMAT)
            || view->format == NULL || strcmp(view->format, "q") != 0) {
        if (view->obj != NULL)
            PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s: %U is not an array('q')",
                     core, Name[k]);
        return NULL;
    }
    if (view->len != n * (Py_ssize_t)sizeof(long long)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError,
                     "%s: %U does not hold one entry per %s (%zd)",
                     core, Name[k], entry, n);
        return NULL;
    }
    return view->buf;
}

/* One of the per-output arrays as its n5 C integers, taken on first use
 * and released with the rest when the step returns. */
static long long *
get_q(Fetch *f, int k)
{
    if (f->q[k].obj != NULL)
        return f->q[k].buf;
    PyObject *value = get(f, k);
    return value == NULL ? NULL : take_q(value, &f->q[k], f->n5, k,
                                         "flat mesh core", "router input");
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
    for (int k = 0; k < N_ARRAYS; k++)
        if (f->q[k].obj != NULL)
            PyBuffer_Release(&f->q[k]);
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

/* A core's busy set: a bytearray, byte i set == member i may have
 * work.  Bytes past the end read as clear and take no write. */
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

static int
any_busy(PyObject *busy)
{
    for (Py_ssize_t i = 0; i < PyByteArray_GET_SIZE(busy); i++)
        if (PyByteArray_AS_STRING(busy)[i])
            return 1;
    return 0;
}

/* popleft and append for the deques of objects: a port's _send_queue,
 * a tile's _rx_ready. */
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

/* -- the ring ------------------------------------------------------------ */

/* Every queue of flit handles under a flat mesh: its router inputs, the
 * committed queues of its ejection FIFOs, and its ports' injection
 * queues.  An int64 circular buffer whose capacity is a power of two and
 * doubles when it fills, with the slice of the deque surface its Python
 * readers use (len, truth, r[i] get and set, iteration, popleft, append,
 * appendleft, extend, clear).
 * The steps move handles through it as C integers, and a push of
 * anything but an int fails at the push. */
typedef struct {
    PyObject_HEAD
    long long *buf;
    Py_ssize_t cap;   /* a power of two */
    Py_ssize_t head;  /* buf index of the front */
    Py_ssize_t len;
} Ring;

static PyTypeObject RingType;

#define RING_FIRST_CAP 8

/* The front handle, taken off; the ring is not empty. */
static inline long long
ring_pop(Ring *r)
{
    long long v = r->buf[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->len--;
    return v;
}

static int
ring_grow(Ring *r)
{
    if (r->cap > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)sizeof(long long)) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t cap = r->cap * 2;
    long long *buf = PyMem_Malloc(cap * sizeof *buf);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < r->len; i++)
        buf[i] = r->buf[(r->head + i) & (r->cap - 1)];
    PyMem_Free(r->buf);
    r->buf = buf;
    r->cap = cap;
    r->head = 0;
    return 0;
}

static inline int
ring_push(Ring *r, long long v)
{
    if (r->len == r->cap && ring_grow(r))
        return -1;
    r->buf[(r->head + r->len) & (r->cap - 1)] = v;
    r->len++;
    return 0;
}

static Ring *
ring_new(void)
{
    Ring *r = PyObject_New(Ring, &RingType);
    if (r == NULL)
        return NULL;
    r->buf = PyMem_Malloc(RING_FIRST_CAP * sizeof *r->buf);
    r->cap = RING_FIRST_CAP;
    r->head = r->len = 0;
    if (r->buf == NULL) {
        Py_DECREF(r);
        PyErr_NoMemory();
        return NULL;
    }
    return r;
}

/* obj as a handle.  Anything but an int got into a flat mesh's queue
 * some other way than LocalPort.send, and the error says so. */
static int
as_handle(PyObject *obj, long long *out)
{
    if (!PyLong_CheckExact(obj)) {
        PyErr_Format(PyExc_TypeError,
                     "%R pushed into a queue of a flat mesh, which holds "
                     "int handles: inject messages through LocalPort.send",
                     obj);
        return -1;
    }
    return as_ll(obj, out);
}

/* obj, which must be a Ring (what names what it is for). */
static Ring *
as_ring(PyObject *obj, const char *what)
{
    if (Py_IS_TYPE(obj, &RingType))
        return (Ring *)obj;
    PyErr_Format(PyExc_TypeError, "%s of a flat mesh is a %s, not a Ring",
                 what, Py_TYPE(obj)->tp_name);
    return NULL;
}

/* rings[fid], borrowed: a Ring, or NULL for the unallocated sentinel
 * (*failed says which NULL is an error). */
static Ring *
ring_at(PyObject *rings, Py_ssize_t fid, int *failed)
{
    PyObject *ring = PyList_GET_ITEM(rings, fid);
    *failed = 0;
    if (ring == NoRing)
        return NULL;
    Ring *r = as_ring(ring, "a router input");
    *failed = r == NULL;
    return r;
}

static int
ring_extend_from(Ring *r, PyObject *iterable)
{
    PyObject *iter = PyObject_GetIter(iterable);
    if (iter == NULL)
        return -1;
    PyObject *obj;
    long long v;
    while ((obj = PyIter_Next(iter)) != NULL) {
        int failed = as_handle(obj, &v) || ring_push(r, v);
        Py_DECREF(obj);
        if (failed) {
            Py_DECREF(iter);
            return -1;
        }
    }
    Py_DECREF(iter);
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *
ring_tp_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    (void)type;
    PyObject *iterable = NULL;
    if ((kwds != NULL && PyDict_GET_SIZE(kwds))
            || !PyArg_UnpackTuple(args, "Ring", 0, 1, &iterable)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "Ring() takes no keyword arguments");
        return NULL;
    }
    Ring *r = ring_new();
    if (r != NULL && iterable != NULL && ring_extend_from(r, iterable))
        Py_CLEAR(r);
    return (PyObject *)r;
}

static void
ring_dealloc(PyObject *self)
{
    PyMem_Free(((Ring *)self)->buf);
    PyObject_Free(self);
}

static Py_ssize_t
ring_length(PyObject *self)
{
    return ((Ring *)self)->len;
}

static int
ring_index(Ring *r, Py_ssize_t i)
{
    if (i < 0 || i >= r->len) {
        PyErr_SetString(PyExc_IndexError, "Ring index out of range");
        return -1;
    }
    return 0;
}

static PyObject *
ring_item(PyObject *self, Py_ssize_t i)
{
    Ring *r = (Ring *)self;
    if (ring_index(r, i))
        return NULL;
    return PyLong_FromLongLong(r->buf[(r->head + i) & (r->cap - 1)]);
}

static int
ring_ass_item(PyObject *self, Py_ssize_t i, PyObject *value)
{
    Ring *r = (Ring *)self;
    long long v;
    if (value == NULL) {
        PyErr_SetString(PyExc_TypeError, "a Ring deletes nothing by index");
        return -1;
    }
    if (ring_index(r, i) || as_handle(value, &v))
        return -1;
    r->buf[(r->head + i) & (r->cap - 1)] = v;
    return 0;
}

static PyObject *
ring_popleft(PyObject *self, PyObject *unused)
{
    (void)unused;
    Ring *r = (Ring *)self;
    if (!r->len) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty Ring");
        return NULL;
    }
    return PyLong_FromLongLong(ring_pop(r));
}

static PyObject *
ring_append(PyObject *self, PyObject *obj)
{
    long long v;
    if (as_handle(obj, &v) || ring_push((Ring *)self, v))
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ring_appendleft(PyObject *self, PyObject *obj)
{
    Ring *r = (Ring *)self;
    long long v;
    if (as_handle(obj, &v) || (r->len == r->cap && ring_grow(r)))
        return NULL;
    r->head = (r->head - 1) & (r->cap - 1);
    r->buf[r->head] = v;
    r->len++;
    Py_RETURN_NONE;
}

static PyObject *
ring_extend(PyObject *self, PyObject *iterable)
{
    /* r.extend(r) appends what r held when it was called, as a deque
     * does. */
    PyObject *source = iterable == self ? PySequence_List(self)
                                        : Py_NewRef(iterable);
    if (source == NULL)
        return NULL;
    int failed = ring_extend_from((Ring *)self, source);
    Py_DECREF(source);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ring_clear(PyObject *self, PyObject *unused)
{
    (void)unused;
    Ring *r = (Ring *)self;
    r->head = r->len = 0;
    Py_RETURN_NONE;
}

static PyMethodDef ring_methods[] = {
    {"popleft", ring_popleft, METH_NOARGS,
     "Remove and return the handle at the front."},
    {"append", ring_append, METH_O, "Add a handle at the back."},
    {"appendleft", ring_appendleft, METH_O, "Add a handle at the front."},
    {"extend", ring_extend, METH_O, "Append every handle of an iterable."},
    {"clear", ring_clear, METH_NOARGS, "Remove every handle."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods ring_as_sequence = {
    .sq_length = ring_length,
    .sq_item = ring_item,
    .sq_ass_item = ring_ass_item,
};

static PyTypeObject RingType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_flatstep.Ring",
    .tp_basicsize = sizeof(Ring),
    .tp_dealloc = ring_dealloc,
    .tp_as_sequence = &ring_as_sequence,
    .tp_hash = PyObject_HashNotImplemented,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Ring(iterable=()): a flat mesh's queue of int flit handles.",
    .tp_methods = ring_methods,
    .tp_new = ring_tp_new,
};

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
    long long *req = get_q(f, A_REQ), *rq = get_q(f, A_RQ);
    long long *grant = get_q(f, A_GRANT);
    PyObject *active = get_list(f, A_ACTIVE);
    long long width, height;
    if (!unres || !rings || !inflight || !req || !rq || !grant || !active
            || get_scalar(f, A_WIDTH, &width)
            || get_scalar(f, A_HEIGHT, &height))
        return -1;
    const Py_ssize_t n5 = f->n5;
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(unres); k++) {
        long long fid, bits, want;
        int failed;
        if (item(unres, k, &fid) || check_index(fid, n5))
            return -1;
        long long r = fid / NPorts, i = fid % NPorts;
        Ring *ring = ring_at(rings, fid, &failed);
        if (failed)
            return -1;
        if (ring == NULL || !ring->len) {
            PyErr_Format(PyExc_IndexError,
                         "input %lld waits for routing but is empty", fid);
            return -1;
        }
        bits = ring->buf[ring->head];
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
        if (failed)
            return -1;
        req[fid] = want;
        long long ofid = fid - i + want;
        if (check_index(ofid, n5))
            return -1;
        if (!rq[ofid] && grant[ofid] < 0 && insort(active, ofid))
            return -1;
        rq[ofid] |= 1LL << i;
    }
    return PyList_SetSlice(unres, 0, PyList_GET_SIZE(unres), NULL);
}

/* -- the output walk ----------------------------------------------------- */

/* What the walk reads, fetched once per step. */
typedef struct {
    PyObject *core, *cycle_obj;
    long long cycle, depth;
    Py_ssize_t n5;
    long long *pushc, *popc, *hw, *hwc, *grant, *rr, *rq, *req, *down;
    long long *fwd_out;
    PyObject *rings, *ejects, *coords, *unres, *tracer;
    PyObject *fblocked;  /* None when no stuck-grant window is open */
    int traced;
    long long *ring_total;
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
    Ring *ring = NULL, *ring_down = NULL, *items = NULL;
    PyObject *eject = NULL;
    long long sfid, dfid, filled = 0;
    int room, failed = -1;

    if (check_index(ofid, w->n5))
        return -1;
    sfid = w->grant[ofid];
    if (sfid >= 0) {
        /* Locked wormhole: the owner's next flit, if here (one pushed
         * this cycle is not here yet). */
        if (check_index(sfid, w->n5))
            return -1;
        ring = ring_at(w->rings, sfid, &failed);
        if (failed)
            return -1;
        failed = -1;
        Py_ssize_t n = ring == NULL ? 0 : ring->len;
        if (n < 2 && (!n || w->pushc[sfid] == cycle))
            return 0;
        Py_INCREF(ring);
    }
    dfid = w->down[ofid];
    if (dfid >= 0) {
        /* Lagged credit return: occupancy as of the last cycle
         * boundary. */
        int bad;
        if (check_index(dfid, w->n5))
            goto out;
        ring_down = ring_at(w->rings, dfid, &bad);
        if (bad)
            goto out;
        Py_XINCREF(ring_down);
        filled = ring_down == NULL ? 0 : ring_down->len;
        room = filled + (w->popc[dfid] == cycle) < w->depth;
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
        PyObject *queue = PyObject_GetAttr(eject, Name[A_ITEMS]);
        if (cap == NULL || queue == NULL) {
            Py_XDECREF(cap);
            Py_XDECREF(queue);
            goto out;
        }
        items = as_ring(queue, "an ejection FIFO's queue");
        if (items == NULL) {
            Py_DECREF(queue);
            Py_DECREF(cap);
            goto out;
        }
        long long capacity = 0;
        if (cap != Py_None && as_ll(cap, &capacity)) {
            Py_DECREF(cap);
            goto out;
        }
        filled = items->len;
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
    long long handle;
    if (sfid < 0) {
        /* Free output: round-robin among the waiting heads. */
        const long long mask = w->rq[ofid], start = w->rr[ofid];
        if (!mask) {
            PyErr_SetString(PyExc_ValueError, "negative shift count");
            goto out;
        }
        long long ahead = (start >= 0 && start < 63) ? mask >> start : 0;
        long long in_index = ahead ? start + count_trailing_zeros(ahead)
                                   : count_trailing_zeros(mask);
        sfid = ofid - ofid % NPorts + in_index;
        int bad;
        if (check_index(sfid, w->n5))
            goto out;
        ring = ring_at(w->rings, sfid, &bad);
        if (bad)
            goto out;
        if (ring == NULL || !ring->len) {
            PyErr_Format(PyExc_IndexError,
                         "input %lld requests output %lld but is empty",
                         sfid, ofid);
            ring = NULL;
            goto out;
        }
        Py_INCREF(ring);
        w->rq[ofid] = mask ^ (1LL << in_index);
        w->rr[ofid] = in_index == NPorts - 1 ? 0 : in_index + 1;
        /* Lock the output; a single-flit message releases it below. */
        w->grant[ofid] = sfid;
        w->req[sfid] = -1;
        /* Credit the whole message now: the head's count + 1 (a lone
         * head-tail is negated with a zero count, so its masked bits
         * are 0 too).  Readers take back what is still upstream. */
        handle = ring_pop(ring);
        w->fwd_out[ofid] += (handle & CountMask) + 1;
    } else {
        handle = ring_pop(ring);
    }
    w->popc[sfid] = cycle;
    if (w->hwc[sfid] == cycle)
        /* Pushed (and raised) earlier this cycle: the mark records
         * end-of-cycle depth, one less after all. */
        w->hw[sfid] -= 1;
    if (dfid >= 0) {
        if (!filled) {
            if (ring_down == NULL) {
                ring_down = ring_new();
                if (ring_down == NULL)
                    goto out;
                Py_INCREF(ring_down);
                if (PyList_SetItem(w->rings, dfid, (PyObject *)ring_down))
                    goto out;
            }
            if (w->req[dfid] == -2 && append_ll(w->unres, dfid))
                /* A head landed in an empty input. */
                goto out;
        }
        if (ring_push(ring_down, handle))
            goto out;
        w->pushc[dfid] = cycle;
        filled += 1;
        if (filled > w->hw[dfid]) {
            w->hw[dfid] = filled;
            w->hwc[dfid] = cycle;
        }
    } else {
        /* An unstaged push: the stamp keeps the flit from this cycle's
         * consumer.  Wake hooks fire on the empty -> non-empty edge. */
        long long high;
        if (ring_push(items, handle)
                || PyObject_SetAttr(eject, Name[A_PUSHC], w->cycle_obj))
            goto out;
        *w->ring_total -= 1;
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
        if (attr_ll(eject, Name[A_HIGH_WATER], &high))
            goto out;
        if (filled >= high) {
            if (set_attr_ll(eject, Name[A_HIGH_WATER], filled + 1)
                    || PyObject_SetAttr(eject, Name[A_HWC], w->cycle_obj))
                goto out;
        }
    }
    if (w->traced) {
        /* A tracer pays for the Flit objects it looks at, once per
         * message (flit_of). */
        PyObject *flit = PyLong_FromLongLong(handle);
        PyObject *seen = flit == NULL ? NULL : PyObject_CallMethodObjArgs(
            w->core, Name[A_FLIT_OF], flit, NULL);
        Py_XDECREF(flit);
        if (seen == NULL)
            goto out;
        int fail = trace_call(w, ofid, Name[A_FLIT_FORWARDED], seen);
        Py_DECREF(seen);
        if (fail)
            goto out;
    }
    if (handle < 0) {
        w->grant[ofid] = -1;
        w->req[sfid] = -2;
        /* The flit behind the tail (even one pushed this cycle) is the
         * next head; it is routed next cycle, as in Router.step. */
        if (ring->len && append_ll(w->unres, sfid))
            goto out;
        if (!w->rq[ofid] && retire(w, ofid))
            goto out;
    }
    failed = 0;
out:
    Py_XDECREF(items);
    Py_XDECREF(eject);
    Py_XDECREF(ring_down);
    Py_XDECREF(ring);
    return failed;
}

static int
walk(Fetch *f, PyObject *cycle_obj, long long cycle)
{
    Walk w = {.core = f->core, .cycle_obj = cycle_obj, .cycle = cycle,
              .n5 = f->n5, .ring_total = &f->ring_total};
    w.pushc = get_q(f, A_PUSHC);
    w.popc = get_q(f, A_POPC);
    w.hw = get_q(f, A_HW);
    w.hwc = get_q(f, A_HWC);
    w.grant = get_q(f, A_GRANT);
    w.rr = get_q(f, A_RR);
    w.rq = get_q(f, A_RQ);
    w.req = get_q(f, A_REQ);
    w.down = get_q(f, A_DOWN);
    w.fwd_out = get_q(f, A_FWD_OUT);
    w.rings = get_list(f, A_RINGS);
    w.ejects = get_list(f, A_EJECTS);
    w.coords = get_list(f, A_COORDS);
    w.unres = get_list(f, A_UNRES);
    w.tracer = get(f, A_TRACER);
    w.fblocked = get(f, A_FAULT_BLOCKED);
    PyObject *active = get_list(f, A_ACTIVE);
    if (!w.pushc || !w.popc || !w.hw || !w.hwc || !w.grant || !w.rr
            || !w.rq || !w.req || !w.down || !w.fwd_out || !w.rings
            || !w.ejects || !w.coords || !w.unres || !w.tracer
            || !w.fblocked || !active || get_scalar(f, A_DEPTH, &w.depth))
        return -1;
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
    if (w.traced < 0)
        return -1;
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
start_message(Fetch *f, PyObject *port, Ring *pending, PyObject *message)
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
        if (ring_push(pending, base | HeadBit | n))
            goto done;
        for (long long handle = base + n - 1; handle > base; handle--)
            if (ring_push(pending, handle))
                goto done;
        if (ring_push(pending, -base))
            goto done;
    } else if (ring_push(pending, -(base | HeadBit))) {
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

/* One port's injection cycle: LocalPort.step inlined over its router's
 * LOCAL ring.  This phase runs after the walk, so a flit pushed here
 * cannot move before the next cycle and needs no push stamp; the mark
 * is raised as the walk raises it.  A port with nothing left to inject
 * clears its busy byte. */
static int
inject_port(Fetch *f, PyObject *entry, PyObject *busy, Py_ssize_t index,
            long long cycle)
{
    long long *req = get_q(f, A_REQ), *hw = get_q(f, A_HW);
    long long *hwc = get_q(f, A_HWC);
    PyObject *unres = get_list(f, A_UNRES), *rings = get_list(f, A_RINGS);
    long long depth, lfid;
    if (req == NULL || hw == NULL || hwc == NULL || unres == NULL
            || rings == NULL || get_scalar(f, A_DEPTH, &depth))
        return -1;
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "an injection entry is (port, LOCAL fid)");
        return -1;
    }
    PyObject *port = PyTuple_GET_ITEM(entry, 0);
    if (as_ll(PyTuple_GET_ITEM(entry, 1), &lfid)
            || check_index(lfid, f->n5))
        return -1;
    Py_INCREF(port);
    int failed = -1;
    PyObject *pending_obj = NULL, *send_queue = NULL, *items = NULL;
    Ring *pending = NULL;
    Py_ssize_t n;
    pending_obj = PyObject_GetAttr(port, Name[A_PENDING]);
    if (pending_obj == NULL
            || (pending = as_ring(pending_obj, "a port's injection queue"))
               == NULL)
        goto done;
    if (!pending->len) {
        send_queue = PyObject_GetAttr(port, Name[A_SEND_QUEUE]);
        if (send_queue == NULL || (n = PyObject_Size(send_queue)) < 0)
            goto done;
        if (!n) {
            set_busy(busy, index, 0);
            failed = 0;
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
    items = Py_NewRef(PyList_GET_ITEM(rings, lfid));
    Ring *local = as_ring(items, "a LOCAL input");
    if (local == NULL)
        goto done;
    const long long filled = local->len;
    if (filled < depth && pending->len) {
        if (!filled && req[lfid] == -2 && append_ll(unres, lfid))
            goto done;
        if (ring_push(local, pending->buf[pending->head]))
            goto done;
        ring_pop(pending);
        f->ring_total += 1;
        if (filled + 1 > hw[lfid]) {
            hw[lfid] = filled + 1;
            hwc[lfid] = cycle;
        }
        if (increment(port, Name[A_FLITS_INJECTED]))
            goto done;
        if (!pending->len) {
            Py_XSETREF(send_queue, PyObject_GetAttr(port, Name[A_SEND_QUEUE]));
            if (send_queue == NULL || (n = PyObject_Size(send_queue)) < 0)
                goto done;
            if (!n)
                set_busy(busy, index, 0);
        }
    }
    failed = 0;
done:
    Py_XDECREF(items);
    Py_XDECREF(send_queue);
    Py_XDECREF(pending_obj);
    Py_DECREF(port);
    return failed;
}

/* The injection phase: the ports whose busy byte is set, in attachment
 * order. */
static int
inject(Fetch *f, PyObject *busy, long long cycle)
{
    PyObject *inj = get_list(f, A_INJ);
    if (inj == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(inj); i++) {
        if (busy_at(busy, i) && inject_port(f, PyList_GET_ITEM(inj, i),
                                            busy, i, cycle))
            return -1;
    }
    return 0;
}

/* -- the tile step ------------------------------------------------------- */

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
    PyObject *busy;        /* bytearray: byte i set == tiles[i] must step */
    long long *deadlines;  /* _deadlines' buffer: tile i's armed deadline,
                            * -1 unarmed */
    Py_ssize_t n;          /* its length, len(_fabric) at the step's start */
} Tiles;

/* _fabric[i], unpacked; the visit holds the record, so the rest are
 * borrowed from it.  own is vars(tile). */
typedef struct {
    PyObject *record;
    PyObject *tile, *port, *eject, *assembler, *mesh_core, *own;
    Ring *items;
    int fast, default_service;
} Rec;

/* Arm tile i's deadline (the next cycle at the earliest), unless an
 * equal-or-earlier (safe) wake is already armed. */
static int
arm(Tiles *s, Py_ssize_t i, long long deadline)
{
    if (check_index(i, s->n))
        return -1;
    if (deadline <= s->cycle)
        deadline = s->cycle + 1;
    long long armed = s->deadlines[i];
    if (armed == -1 || deadline < armed)
        s->deadlines[i] = deadline;
    return 0;
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
        if (!r->items->len) {
            PyErr_SetString(PyExc_IndexError, "pop from an empty Ring");
            return -1;
        }
        handle = ring_pop(r->items);
        if (attr_ll(r->eject, Name[A_HWC], &v))
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
    if (r->items->len)
        return 0;  /* flits to pump (or a full buffer) */
    PyObject *in_service = PyObject_GetAttr(r->tile, Name[T_IN_SERVICE]);
    if (in_service == NULL)
        return -1;
    int serving = in_service != Py_None;
    Py_DECREF(in_service);
    if (serving) {
        set_busy(s->busy, i, 0);
        return attr_ll(r->tile, Name[T_EMIT_AT], &v) ? -1 : arm(s, i, v);
    }
    Py_ssize_t n = PyObject_Size(rx);
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
    Py_ssize_t n = r->items->len;
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
        Py_ssize_t n = r->items->len;
        if (!n && as_ll(due, &deadline)) {
            failed = -1;
        } else if (!n) {
            set_busy(s->busy, i, 0);
            if (deadline != NeverValue)
                failed = arm(s, i, deadline);
            else if (check_index(i, s->n))
                failed = -1;
            else
                s->deadlines[i] = -1;
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
    if (!Py_IS_TYPE(PyTuple_GET_ITEM(record, 3), &RingType)) {
        PyErr_Format(PyExc_TypeError,
                     "tile record %zd: the ejection queue is a %s, not a "
                     "Ring", i, Py_TYPE(PyTuple_GET_ITEM(record, 3))->tp_name);
        return -1;
    }
    r->record = Py_NewRef(record);
    r->tile = PyTuple_GET_ITEM(record, 0);
    r->port = PyTuple_GET_ITEM(record, 1);
    r->eject = PyTuple_GET_ITEM(record, 2);
    r->items = (Ring *)PyTuple_GET_ITEM(record, 3);
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
    if (type != NULL && Py_TYPE(value) != type) {
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
    PyObject *result = NULL, *fabric = NULL, *deadlines = NULL;
    Py_buffer view = {0};
    s.busy = tile_core_attr(dict, C_BUSY, &PyByteArray_Type);
    fabric = s.busy ? tile_core_attr(dict, C_FABRIC, &PyList_Type) : NULL;
    deadlines = fabric ? tile_core_attr(dict, C_DEADLINES, NULL) : NULL;
    if (deadlines == NULL)
        goto done;
    /* Held until the step returns, so nothing the walk calls can resize
     * it (adopt's first write is its append). */
    s.n = PyList_GET_SIZE(fabric);
    s.deadlines = take_q(deadlines, &view, s.n, C_DEADLINES,
                         "flat tile core", "tile");
    if (s.deadlines == NULL)
        goto done;
    /* Deadlines due: each is disarmed and sets its tile's byte. */
    for (Py_ssize_t i = 0; i < s.n; i++) {
        if (0 <= s.deadlines[i] && s.deadlines[i] <= s.cycle) {
            s.deadlines[i] = -1;
            set_busy(s.busy, i, 1);
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
    /* Due every cycle while a byte is set, else at the earliest armed
     * deadline (every one is after this cycle now), else never. */
    if (any_busy(s.busy)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    long long next = -1;
    for (Py_ssize_t i = 0; i < s.n; i++) {
        long long d = s.deadlines[i];
        if (d >= 0 && (next < 0 || d < next))
            next = d;
    }
    result = next < 0 ? Py_NewRef(Never) : PyLong_FromLongLong(next);
done:
    if (view.obj != NULL)
        PyBuffer_Release(&view);
    Py_XDECREF(deadlines);
    Py_XDECREF(fabric);
    Py_XDECREF(s.busy);
    Py_DECREF(dict);
    return result;
}

/* -- the wakers ---------------------------------------------------------- */

/* Every wake hook is a Waker, of one of two kinds, chosen by its
 * vectorcall:
 *
 * - kernel_waker(sim, component, slot), the scheduled kernel's hook for
 *   registration slot `slot`: what CycleSimulator._waker_for hands a
 *   component as its _kernel_wake and hooks on its wake_sources().  It
 *   applies the wake rule of repro.sim.kernel's module docstring to the
 *   simulator's own _wake_at (its table), reading `cycle` and
 *   `_stepping` where the clock below writes them.
 * - waker(core, busy, index), the hook a core hands member `index`: a
 *   tile's _kernel_wake and ejection FIFO waker, a port's _kernel_wake.
 *   It sets the member's byte in the core's busy bytearray (its table)
 *   and, if the byte was clear, wakes the core through its own
 *   _kernel_wake (a set byte means the core is not idle, so it is still
 *   scheduled): a kernel waker directly, anything else by a call.
 *
 * `component` is what the hook wakes (the component, or the core), the
 * tag the wake lint reads; `index` is the slot or the member. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *owner;      /* the simulator, or the core */
    PyObject *table;      /* the simulator's _wake_at, or the busy bytes */
    PyObject *component;
    Py_ssize_t index;
} Waker;

static PyTypeObject WakerType;

static int
kernel_wake(Waker *w)
{
    PyObject *dict = PyObject_GenericGetDict(w->owner, NULL);
    if (dict == NULL)
        return -1;
    PyObject *cycle_obj = PyDict_GetItemWithError(dict, Name[K_CYCLE]);
    PyObject *stepping_obj = cycle_obj == NULL ? NULL
        : PyDict_GetItemWithError(dict, Name[K_STEPPING]);
    Py_XINCREF(cycle_obj);
    Py_ssize_t slot = w->index;
    long long cycle, stepping, due;
    int failed = -1;
    if (stepping_obj == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "a kernel waker's simulator has no cycle");
    }
    else if (as_ll(cycle_obj, &cycle) || as_ll(stepping_obj, &stepping)
             || check_index(slot, PyList_GET_SIZE(w->table))
             || item(w->table, slot, &due))
        ;
    else if (slot > stepping) {
        /* Between ticks, or its turn this tick is still ahead. */
        if (due > cycle)
            set_object(w->table, slot, cycle_obj);
        failed = 0;
    }
    else if (slot == stepping || due > cycle + 1) {
        /* Its turn has passed (stepping everything would have stepped
         * it before the waker, seeing nothing new), or is now: the
         * next cycle.  From its own step this marks the entry for the
         * tick to keep over the answer. */
        failed = set_item(w->table, slot, cycle + 1);
    }
    else
        failed = 0;
    Py_XDECREF(cycle_obj);
    Py_DECREF(dict);
    return failed;
}

static int
no_arguments(size_t nargsf, PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf)
            || (kwnames != NULL && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "a waker takes no arguments");
        return -1;
    }
    return 0;
}

static PyObject *
kernel_waker_call(PyObject *self, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    (void)args;
    if (no_arguments(nargsf, kwnames) || kernel_wake((Waker *)self))
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
member_waker_call(PyObject *self, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    (void)args;
    Waker *w = (Waker *)self;
    if (no_arguments(nargsf, kwnames))
        return NULL;
    if (busy_at(w->table, w->index))
        Py_RETURN_NONE;
    set_busy(w->table, w->index, 1);
    PyObject *wake = PyObject_GetAttr(w->owner, Name[C_KERNEL_WAKE]);
    if (wake == NULL || wake == Py_None)
        return wake;
    PyObject *none = Py_IS_TYPE(wake, &WakerType)
                     && ((Waker *)wake)->vectorcall == kernel_waker_call
        ? (kernel_wake((Waker *)wake) ? NULL : Py_NewRef(Py_None))
        : PyObject_CallNoArgs(wake);
    Py_DECREF(wake);
    return none;
}

static int
waker_traverse(PyObject *self, visitproc visit, void *arg)
{
    Waker *w = (Waker *)self;
    Py_VISIT(w->owner);
    Py_VISIT(w->table);
    Py_VISIT(w->component);
    return 0;
}

static int
waker_clear(PyObject *self)
{
    Waker *w = (Waker *)self;
    Py_CLEAR(w->owner);
    Py_CLEAR(w->table);
    Py_CLEAR(w->component);
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
    Waker *w = (Waker *)self;
    return w->vectorcall == kernel_waker_call
        ? PyUnicode_FromFormat("<kernel waker of slot %zd>", w->index)
        : PyUnicode_FromFormat("<waker %zd>", w->index);
}

static PyObject *
waker_component(PyObject *self, void *closure)
{
    (void)closure;
    return Py_NewRef(((Waker *)self)->component);
}

static PyObject *
waker_slot(PyObject *self, void *closure)
{
    (void)closure;
    return PyLong_FromSsize_t(((Waker *)self)->index);
}

static PyGetSetDef waker_getset[] = {
    {"component", waker_component, NULL, "What this hook wakes.", NULL},
    {"slot", waker_slot, NULL,
     "The registration slot (a core member's index).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject WakerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_flatstep.Waker",
    .tp_basicsize = sizeof(Waker),
    .tp_dealloc = waker_dealloc,
    .tp_vectorcall_offset = offsetof(Waker, vectorcall),
    .tp_repr = waker_repr,
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "A wake hook: the scheduled kernel's for a slot, or a flat "
              "core's for a member.",
    .tp_traverse = waker_traverse,
    .tp_clear = waker_clear,
    .tp_getset = waker_getset,
};

/* A new Waker; steals a reference to table. */
static PyObject *
new_waker(vectorcallfunc call, PyObject *owner, PyObject *table,
          PyObject *component, Py_ssize_t index)
{
    Waker *w = PyObject_GC_New(Waker, &WakerType);
    if (w == NULL) {
        Py_DECREF(table);
        return NULL;
    }
    w->vectorcall = call;
    w->owner = Py_NewRef(owner);
    w->table = table;
    w->component = Py_NewRef(component);
    w->index = index;
    PyObject_GC_Track(w);
    return (PyObject *)w;
}

static PyObject *
kernel_waker(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *sim, *component;
    Py_ssize_t slot;
    if (!PyArg_ParseTuple(args, "OOn:kernel_waker", &sim, &component,
                          &slot))
        return NULL;
    if (slot < 0) {
        PyErr_SetString(PyExc_ValueError, "a slot is not negative");
        return NULL;
    }
    PyObject *wake_at = PyObject_GetAttr(sim, Name[K_WAKE_AT]);
    if (wake_at == NULL)
        return NULL;
    if (!PyList_CheckExact(wake_at)) {
        PyErr_SetString(PyExc_TypeError, "_wake_at is not a list");
        Py_DECREF(wake_at);
        return NULL;
    }
    return new_waker(kernel_waker_call, sim, wake_at, component, slot);
}

static PyObject *
waker(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *core, *busy;
    Py_ssize_t index;
    if (!PyArg_ParseTuple(args, "OO!n:waker", &core, &PyByteArray_Type,
                          &busy, &index))
        return NULL;
    if (index < 0) {
        PyErr_SetString(PyExc_ValueError, "a member index is not negative");
        return NULL;
    }
    return new_waker(member_waker_call, core, Py_NewRef(busy), core, index);
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
    if (Popleft == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "mesh_step before bind()");
        return NULL;
    }
    long long cycle, ring_total;
    if (as_ll(args[1], &cycle))
        return NULL;
    Fetch f = {.core = args[0]};
    PyObject *result = NULL;
    PyObject *rings = get_list(&f, A_RINGS);
    PyObject *unres = get_list(&f, A_UNRES);
    PyObject *active = get_list(&f, A_ACTIVE);
    PyObject *busy = get_typed(&f, A_INJ_BUSY, &PyByteArray_Type);
    PyObject *total = busy == NULL ? NULL : core_attr(&f, Name[A_RING_TOTAL]);
    if (rings == NULL || unres == NULL || active == NULL || total == NULL
            || as_ll(total, &ring_total)) {
        Py_XDECREF(total);
        goto done;
    }
    Py_DECREF(total);
    f.n5 = PyList_GET_SIZE(rings);
    f.ring_total = ring_total;
    int failed = (PyList_GET_SIZE(unres) && resolve_heads(&f))
                 || (PyList_GET_SIZE(active) && walk(&f, args[1], cycle))
                 || inject(&f, busy, cycle);
    /* _ring_total, written once a step: after a failure too, for the
     * flits that moved before it. */
    if (f.ring_total != ring_total) {
        if (!failed) {
            failed = set_attr_ll(f.core, Name[A_RING_TOTAL], f.ring_total);
        } else {
            Pending pending = pending_take();
            if (set_attr_ll(f.core, Name[A_RING_TOTAL], f.ring_total))
                pending_drop(pending);
            else
                pending_restore(pending);
        }
    }
    /* Due every cycle while a flit is in a router input or a port has
     * anything to inject. */
    if (!failed)
        result = Py_NewRef(f.ring_total || any_busy(busy) ? Py_None : Never);
done:
    release(&f);
    return result;
}

/* -- the clock ----------------------------------------------------------- */

/* The scheduled kernel's cycle (`tick`) and its run and run_until
 * (`run`): CycleSimulator in src/repro/sim/kernel.py, whose module
 * docstring is their specification.  They keep nothing of their own.
 * `cycle`, `_stepping`, `component_steps` and `idle_cycles_skipped`
 * are the simulator's attributes, written as they change, so a step, a
 * waker, a condition or the tracer reads them as it would from Python;
 * `_wake_at` and `_components` are the simulator's lists, read live.
 * A flat core whose step is not shadowed on the instance is stepped by
 * mesh_step or tile_step directly.  Every other component, any
 * shadowed step and a shadowed tick are called by name. */
typedef struct {
    PyObject *dict;        /* vars(sim) */
    PyObject *components;  /* sim._components */
    PyObject *wake_at;     /* sim._wake_at */
} Clock;

static int
clock_open(Clock *k, PyObject *sim)
{
    k->components = k->wake_at = NULL;
    k->dict = PyObject_GenericGetDict(sim, NULL);
    if (k->dict == NULL)
        return -1;
    k->components = PyObject_GetAttr(sim, Name[K_COMPONENTS]);
    k->wake_at = k->components == NULL ? NULL
        : PyObject_GetAttr(sim, Name[K_WAKE_AT]);
    if (k->wake_at == NULL)
        return -1;
    if (!PyList_CheckExact(k->components) || !PyList_CheckExact(k->wake_at)) {
        PyErr_SetString(PyExc_TypeError,
                        "_components and _wake_at are lists");
        return -1;
    }
    return 0;
}

static void
clock_close(Clock *k)
{
    Py_XDECREF(k->wake_at);
    Py_XDECREF(k->components);
    Py_XDECREF(k->dict);
}

/* sim.<name>, borrowed. */
static PyObject *
state(Clock *k, int n)
{
    PyObject *value = PyDict_GetItemWithError(k->dict, Name[n]);
    if (value == NULL && !PyErr_Occurred())
        PyErr_Format(PyExc_AttributeError, "simulator has no %U", Name[n]);
    return value;
}

static int
state_ll(Clock *k, int n, long long *out)
{
    PyObject *value = state(k, n);
    return value == NULL ? -1 : as_ll(value, out);
}

static int
set_state(Clock *k, int n, PyObject *value)
{
    return PyDict_SetItem(k->dict, Name[n], value);
}

static int
set_state_ll(Clock *k, int n, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    int failed = set_state(k, n, obj);
    Py_DECREF(obj);
    return failed;
}

/* sim.<name> += by */
static int
add_state(Clock *k, int n, long long by)
{
    long long value;
    return state_ll(k, n, &value) || set_state_ll(k, n, value + by) ? -1 : 0;
}

/* sim.tracer.cycle_start(cycle), if the tracer is enabled. */
static int
announce(Clock *k, PyObject *cycle_obj)
{
    PyObject *tracer = state(k, A_TRACER);
    if (tracer == NULL)
        return -1;
    Py_INCREF(tracer);
    int on = attr_truth(tracer, Name[A_ENABLED]);
    if (on > 0)
        on = CALL_VOID(K_CYCLE_START, tracer, cycle_obj);
    Py_DECREF(tracer);
    return on < 0 ? -1 : 0;
}

/* components[slot].step(cycle): a flat core's C step when the instance
 * does not shadow it, else by name. */
static PyObject *
step_slot(Clock *k, Py_ssize_t slot, PyObject *cycle_obj)
{
    PyObject *component = PyList_GetItem(k->components, slot);
    if (component == NULL)
        return NULL;
    Py_INCREF(component);
    PyObject *type = (PyObject *)Py_TYPE(component);
    PyObject *args[2] = {component, cycle_obj};
    PyObject *answer = NULL;
    int direct = 0;
    if (type == MeshCore || type == TileCore) {
        PyObject *own = PyObject_GenericGetDict(component, NULL);
        direct = own != NULL
                 && PyDict_GetItemWithError(own, Name[T_STEP]) == NULL;
        Py_XDECREF(own);
        if (PyErr_Occurred())
            goto done;
    }
    answer = !direct ? CALL(T_STEP, component, cycle_obj)
        : type == MeshCore ? mesh_step(NULL, args, 2)
        : tile_step(NULL, args, 2);
done:
    Py_DECREF(component);
    return answer;
}

/* Files what slot's step answered in _wake_at.  None: due again next
 * tick, the entry stays.  An entry past this cycle is a wake from its
 * own step; it outranks the answer.  Otherwise the answer, or the next
 * cycle (*next, made once a tick) for one at or before this cycle. */
static int
file_answer(PyObject *wake_at, Py_ssize_t slot, PyObject *answer,
            long long cycle, PyObject **next)
{
    long long nxt, entry;
    if (answer == Py_None)
        return 0;
    if (as_ll(answer, &nxt) || check_index(slot, PyList_GET_SIZE(wake_at))
            || item(wake_at, slot, &entry))
        return -1;
    if (nxt > cycle && cycle >= entry) {
        set_object(wake_at, slot, answer);
        return 0;
    }
    if (*next == NULL && (*next = PyLong_FromLongLong(cycle + 1)) == NULL)
        return -1;
    set_object(wake_at, slot, *next);
    return 0;
}

/* One cycle: the scheduled body of CycleSimulator.tick. */
static int
tick_body(Clock *k)
{
    PyObject *cycle_obj = state(k, K_CYCLE);
    if (cycle_obj == NULL)
        return -1;
    Py_INCREF(cycle_obj);
    PyObject *next = NULL;  /* cycle + 1, made once */
    long long cycle, steps = 0;
    if (as_ll(cycle_obj, &cycle) || announce(k, cycle_obj))
        goto fail;
    /* Read live: a wake lowers the entry of a slot still ahead. */
    for (Py_ssize_t slot = 0; slot < PyList_GET_SIZE(k->wake_at); slot++) {
        long long due;
        if (item(k->wake_at, slot, &due))
            goto fail;
        if (due > cycle)
            continue;
        PyObject *stepping = PyLong_FromSsize_t(slot);
        int failed = stepping == NULL || set_state(k, K_STEPPING, stepping);
        Py_XDECREF(stepping);
        PyObject *answer = failed ? NULL : step_slot(k, slot, cycle_obj);
        if (answer == NULL)
            goto fail;
        failed = file_answer(k->wake_at, slot, answer, cycle, &next);
        Py_DECREF(answer);
        if (failed)
            goto fail;
        steps++;
    }
    if (next == NULL && (next = PyLong_FromLongLong(cycle + 1)) == NULL)
        goto fail;
    int failed = set_state_ll(k, K_STEPPING, -1)
                 || add_state(k, K_COMPONENT_STEPS, steps)
                 || set_state(k, K_CYCLE, next);
    Py_DECREF(next);
    Py_DECREF(cycle_obj);
    return failed ? -1 : 0;
fail:
    /* The step phase's `finally`: the slot being stepped is reset, and
     * the clock and the step count stay where they were. */
    {
        Pending pending = pending_take();
        if (set_state_ll(k, K_STEPPING, -1))
            pending_drop(pending);
        else
            pending_restore(pending);
    }
    Py_XDECREF(next);
    Py_DECREF(cycle_obj);
    return -1;
}

/* Advance the clock over a stretch of provably idle cycles. */
static int
skip_to(Clock *k, long long cycle, long long target)
{
    if (target <= cycle)
        return 0;
    if (add_state(k, K_IDLE_SKIPPED, target - cycle))
        return -1;
    /* The naive kernel announces every cycle; announcing the last
     * skipped one keeps the tracer's last cycle identical. */
    PyObject *last = PyLong_FromLongLong(target - 1);
    int failed = last == NULL || announce(k, last);
    Py_XDECREF(last);
    return failed ? -1 : set_state_ll(k, K_CYCLE, target);
}

/* condition() with the clock set to `at` (only the clock advances
 * during an idle stretch, so probing a trial cycle is just a matter of
 * setting it); the clock is put back to `here`. */
static int
holds_at(Clock *k, PyObject *condition, long long at, long long here)
{
    if (set_state_ll(k, K_CYCLE, at))
        return -1;
    PyObject *value = PyObject_CallNoArgs(condition);
    int holds = value == NULL ? -1 : PyObject_IsTrue(value);
    Py_XDECREF(value);
    if (holds < 0 || set_state_ll(k, K_CYCLE, here))
        return -1;
    return holds;
}

/* Skip an idle stretch, stopping at the first cycle in (cycle, target]
 * where the condition holds (if any), found by bisection. */
static int
skip_to_condition(Clock *k, PyObject *condition, long long cycle,
                  long long target)
{
    int holds = holds_at(k, condition, target, cycle);
    if (holds <= 0)
        return holds < 0 ? -1 : skip_to(k, cycle, target);
    long long lo = cycle + 1, hi = target;
    while (lo < hi) {
        long long mid = lo + (hi - lo) / 2;
        holds = holds_at(k, condition, mid, cycle);
        if (holds < 0)
            return -1;
        if (holds)
            hi = mid;
        else
            lo = mid + 1;
    }
    return skip_to(k, cycle, lo);
}

/* min(_wake_at), NEVER for an empty list. */
static int
first_due(Clock *k, long long *out)
{
    *out = NeverValue;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(k->wake_at); i++) {
        long long due;
        if (item(k->wake_at, i, &due))
            return -1;
        if (due < *out)
            *out = due;
    }
    return 0;
}

static PyObject *
clock_tick(PyObject *module, PyObject *sim)
{
    (void)module;
    Clock k;
    int failed = clock_open(&k, sim) || tick_body(&k);
    clock_close(&k);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

/* run(sim, end, condition, deadline): run (condition None) to cycle
 * `end`, or run_until the condition holds, giving up at `end` or once
 * time.monotonic() reaches `deadline` (a float, or None for no budget).
 * Returns None when the run is done, else the name of the limit that
 * ran out ("max_cycles" or "wall_clock_budget_s"), for run_until to
 * raise with. */
static PyObject *
clock_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "run(sim, end, condition, deadline)");
        return NULL;
    }
    if (KernelTick == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "run before bind()");
        return NULL;
    }
    PyObject *sim = args[0], *condition = args[2], *result = NULL;
    long long end, cycle, due;
    double deadline = args[3] == Py_None ? 0 : PyFloat_AsDouble(args[3]);
    if (as_ll(args[1], &end) || (deadline == -1 && PyErr_Occurred()))
        return NULL;
    Clock k;
    /* Looked up once per run, as the Python loop did: a tick shadowed
     * on the instance, or overridden, is called by name. */
    PyObject *tick = clock_open(&k, sim) ? NULL
        : PyObject_GetAttr(sim, Name[K_TICK]);
    if (tick == NULL)
        goto done;
    int native = PyMethod_Check(tick) && PyMethod_GET_SELF(tick) == sim
                 && PyMethod_GET_FUNCTION(tick) == KernelTick;
    for (;;) {
        if (condition != Py_None) {
            PyObject *value = PyObject_CallNoArgs(condition);
            int met = value == NULL ? -1 : PyObject_IsTrue(value);
            Py_XDECREF(value);
            if (met < 0)
                goto done;
            if (met)
                break;
        }
        if (state_ll(&k, K_CYCLE, &cycle))
            goto done;
        if (cycle >= end) {
            if (condition != Py_None) {
                result = Py_NewRef(Name[K_MAX_CYCLES]);
                goto done;
            }
            break;
        }
        if (args[3] != Py_None) {
            PyObject *now = PyObject_CallNoArgs(Monotonic);
            double at = now == NULL ? -1 : PyFloat_AsDouble(now);
            Py_XDECREF(now);
            if (at == -1 && PyErr_Occurred())
                goto done;
            if (at >= deadline) {
                result = Py_NewRef(Name[K_WALL_CLOCK]);
                goto done;
            }
        }
        if (first_due(&k, &due))
            goto done;
        if (due > cycle) {
            long long target = due > end ? end : due;
            if (condition == Py_None ? skip_to(&k, cycle, target)
                    : skip_to_condition(&k, condition, cycle, target))
                goto done;
        }
        else if (native ? tick_body(&k) : dropped(PyObject_CallNoArgs(tick)))
            goto done;
    }
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(tick);
    clock_close(&k);
    return result;
}

static PyObject *
bind(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *deque, *message, *bytes_like, *ports, *no_ring, *never;
    PyObject *framing_error, *next_packet_id, *tick, *monotonic;
    long long flit_bytes, seq_shift, head_bit, never_value;
    if (!PyArg_ParseTuple(args, "OOOO!OOLLLOOOO:bind", &deque, &message,
                          &bytes_like, &PyTuple_Type, &ports, &no_ring,
                          &never, &flit_bytes, &seq_shift, &head_bit,
                          &framing_error, &next_packet_id, &tick,
                          &monotonic)
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
    Py_XSETREF(KernelTick, Py_NewRef(tick));
    Py_XSETREF(Monotonic, Py_NewRef(monotonic));
    NeverValue = never_value;
    NPorts = PyTuple_GET_SIZE(ports);
    FlitBytes = flit_bytes;
    SeqShift = seq_shift;
    HeadBit = head_bit;
    CountMask = head_bit - 1;
    Py_RETURN_NONE;
}

static PyObject *
step_directly(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *cls, *step;
    if (!PyArg_ParseTuple(args, "O!O:step_directly", &PyType_Type, &cls,
                          &step))
        return NULL;
    PyCFunction fn = PyCFunction_Check(step)
        ? PyCFunction_GetFunction(step) : NULL;
    PyObject **core = fn == (PyCFunction)(void (*)(void))mesh_step
        ? &MeshCore
        : fn == (PyCFunction)(void (*)(void))tile_step ? &TileCore : NULL;
    if (core == NULL) {
        PyErr_SetString(PyExc_ValueError,
                        "step_directly: step is mesh_step or tile_step");
        return NULL;
    }
    Py_XSETREF(*core, Py_NewRef(cls));
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"mesh_step", (PyCFunction)(void (*)(void))mesh_step, METH_FASTCALL,
     "mesh_step(core, cycle): one cycle of a FlatMeshCore."},
    {"tile_step", (PyCFunction)(void (*)(void))tile_step, METH_FASTCALL,
     "tile_step(core, cycle): one cycle of a FlatTileCore."},
    {"waker", waker, METH_VARARGS,
     "waker(core, busy, index): the wake hook of a flat core's member "
     "index."},
    {"kernel_waker", kernel_waker, METH_VARARGS,
     "kernel_waker(sim, component, slot): the scheduled kernel's wake "
     "hook of a registration slot."},
    {"tick", clock_tick, METH_O,
     "tick(sim): one cycle of a scheduled CycleSimulator."},
    {"run", (PyCFunction)(void (*)(void))clock_run, METH_FASTCALL,
     "run(sim, end, condition, deadline): a scheduled CycleSimulator's "
     "run and run_until."},
    {"bind", bind, METH_VARARGS,
     "bind(deque, NocMessage, bytes_like, port_values, no_ring, never, "
     "flit_bytes, seq_shift, head_bit, handle_framing_error, "
     "next_packet_id, CycleSimulator.tick, time.monotonic): the Python "
     "definitions the steps use."},
    {"step_directly", step_directly, METH_VARARGS,
     "step_directly(cls, step): the clock steps an instance of exactly "
     "cls whose step is not shadowed by calling step (mesh_step or "
     "tile_step) itself."},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *module)
{
    return PyModule_AddObjectRef(module, "Ring", (PyObject *)&RingType);
}

/* Multi-phase initialisation: the loader files nothing in sys.modules. */
static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_flatstep",
    .m_doc = "The flat cores' steps and the scheduled kernel's clock, "
             "compiled (see src/repro/noc/flatmesh.py, "
             "src/repro/tiles/flatcore.py and src/repro/sim/kernel.py).",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__flatstep(void)
{
    if (PyType_Ready(&RingType) || PyType_Ready(&WakerType))
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
