// Compiled search kernel over 64-bit masks (species counts up to 64).
//
// Written against the CPython C API. It has the same functions, arguments,
// return values and status codes as the pure kernel (rsys._kernel_py, which
// documents the contract), and both searches expand each distinct result
// once, as the pure ones do. Every mask is read with
// PyLong_AsUnsignedLongLong, so a negative mask or one of 2^64 or more
// raises OverflowError instead of being truncated. The engine picks this
// backend when it is importable and the species table fits in 64 bits.
//
// Build: `python setup.py build_ext --inplace` (or any pip install).

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <deque>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace {

enum Status { FOUND = 0, EXHAUSTED = 1, DEPTH_LIMITED = 2, BUDGET_STOP = 3 };

struct Reaction {
    uint64_t r, i, p;
};
using Masks = std::vector<uint64_t>;
using Reactions = std::vector<Reaction>;

// Owns one reference for the life of a scope.
struct Ref {
    PyObject *obj;
    ~Ref() { Py_XDECREF(obj); }
};

uint64_t res(uint64_t state, const Reactions &rx) {
    uint64_t out = 0;
    for (const Reaction &x : rx)
        if ((state & x.r) == x.r && !(state & x.i)) out |= x.p;
    return out;
}

bool read_mask(PyObject *obj, uint64_t &out) {
    out = PyLong_AsUnsignedLongLong(obj);
    return !(out == (uint64_t)-1 && PyErr_Occurred());
}

bool read_masks(PyObject *seq, Masks &out) {
    Ref fast{PySequence_Fast(seq, "expected a sequence of masks")};
    if (!fast.obj) return false;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast.obj);
    PyObject **items = PySequence_Fast_ITEMS(fast.obj);
    out.resize(n);
    for (Py_ssize_t k = 0; k < n; ++k)
        if (!read_mask(items[k], out[k])) return false;
    return true;
}

// Reactions are zipped, so the shortest of the three tuples sets their
// count, as in the pure kernel; every mask is still checked.
bool read_reactions(PyObject *rmasks, PyObject *imasks, PyObject *pmasks, Reactions &out) {
    Masks r, i, p;
    if (!read_masks(rmasks, r) || !read_masks(imasks, i) || !read_masks(pmasks, p))
        return false;
    size_t n = std::min({r.size(), i.size(), p.size()});
    out.resize(n);
    for (size_t k = 0; k < n; ++k) out[k] = {r[k], i[k], p[k]};
    return true;
}

// A depth limit or node budget, saturated to the long long range. The
// kernels only compare it with visit counts and depths, which never come
// near either end, so every comparison keeps the answer it has in Python.
bool read_count(PyObject *obj, long long &out) {
    int overflow;
    out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow) out = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    return !(out == -1 && PyErr_Occurred());
}

PyObject *mask_list(const Masks &masks) {
    PyObject *list = PyList_New((Py_ssize_t)masks.size());
    if (!list) return NULL;
    for (size_t k = 0; k < masks.size(); ++k) {
        PyObject *v = PyLong_FromUnsignedLongLong(masks[k]);
        if (!v) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, (Py_ssize_t)k, v);
    }
    return list;
}

PyObject *witness_result(int status, uint64_t hit, const Masks &path, long long start,
                         size_t visited) {
    PyObject *list = mask_list(path);
    if (!list) return NULL;
    return Py_BuildValue("(iKNLn)", status, (unsigned long long)hit, list, start,
                         (Py_ssize_t)visited);
}

PyObject *closure_result(const Masks &order, const std::unordered_set<uint64_t> &successors,
                         bool truncated) {
    Ref set{PySet_New(NULL)};
    if (!set.obj) return NULL;
    for (uint64_t w : successors) {
        Ref v{PyLong_FromUnsignedLongLong(w)};
        if (!v.obj || PySet_Add(set.obj, v.obj) < 0) return NULL;
    }
    PyObject *list = mask_list(order);
    if (!list) return NULL;
    return Py_BuildValue("(NOO)", list, set.obj, truncated ? Py_True : Py_False);
}

PyObject *py_res_mask(PyObject *, PyObject *args, PyObject *kwargs) {
    static const char *names[] = {"state", "rmasks", "imasks", "pmasks", NULL};
    PyObject *state_obj, *rmasks, *imasks, *pmasks;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:res_mask", (char **)names,
                                     &state_obj, &rmasks, &imasks, &pmasks))
        return NULL;
    try {
        uint64_t state;
        Reactions rx;
        if (!read_mask(state_obj, state) || !read_reactions(rmasks, imasks, pmasks, rx))
            return NULL;
        return PyLong_FromUnsignedLongLong(res(state, rx));
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
}

PyObject *py_bfs_witness(PyObject *, PyObject *args, PyObject *kwargs) {
    static const char *names[] = {"starts", "contexts",  "rmasks",      "imasks",      "pmasks",
                                  "goal_mask", "t_mask", "depth_limit", "node_budget", NULL};
    PyObject *starts_obj, *contexts_obj, *rmasks, *imasks, *pmasks, *goal_obj, *t_obj,
        *depth_obj, *budget_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOOO:bfs_witness", (char **)names,
                                     &starts_obj, &contexts_obj, &rmasks, &imasks, &pmasks,
                                     &goal_obj, &t_obj, &depth_obj, &budget_obj))
        return NULL;
    try {
        Masks starts, contexts;
        Reactions rx;
        uint64_t goal, t_mask;
        long long limit, budget;
        if (!read_masks(starts_obj, starts) || !read_masks(contexts_obj, contexts) ||
            !read_reactions(rmasks, imasks, pmasks, rx) || !read_mask(goal_obj, goal) ||
            !read_mask(t_obj, t_mask) || !read_count(depth_obj, limit) ||
            !read_count(budget_obj, budget))
            return NULL;

        // parent[w] = (previous state, context index); starts use index -1-k
        std::unordered_map<uint64_t, std::pair<uint64_t, long long>> parent;
        std::deque<std::pair<uint64_t, long long>> queue;  // (state, depth)
        std::unordered_set<uint64_t> expanded;
        bool truncated = false;

        for (size_t k = 0; k < starts.size(); ++k) {
            uint64_t w = starts[k];
            if (parent.count(w)) continue;
            if ((long long)parent.size() >= budget)
                return witness_result(BUDGET_STOP, 0, {}, -1, parent.size());
            parent.emplace(w, std::make_pair(w, -1 - (long long)k));
            if ((w & t_mask) == goal) return witness_result(FOUND, w, {}, k, parent.size());
            if (limit == 0)
                truncated = true;
            else
                queue.emplace_back(w, 0);
        }

        while (!queue.empty()) {
            auto [w, depth] = queue.front();
            queue.pop_front();
            uint64_t d = res(w, rx);
            // An earlier state with the same result already inserted every
            // successor, with the same parents, budget checks and depths.
            if (!expanded.insert(d).second) continue;
            long long child_depth = depth + 1;
            for (size_t ci = 0; ci < contexts.size(); ++ci) {
                uint64_t w2 = contexts[ci] | d;
                if ((long long)parent.size() >= budget) {  // only known states pass
                    if (parent.count(w2)) continue;
                    return witness_result(BUDGET_STOP, 0, {}, -1, parent.size());
                }
                if (!parent.try_emplace(w2, w, (long long)ci).second) continue;
                if ((w2 & t_mask) == goal) {
                    Masks path{ci};
                    for (uint64_t cur = w;;) {
                        auto [prev, pci] = parent.at(cur);
                        if (pci < 0) {
                            std::reverse(path.begin(), path.end());
                            return witness_result(FOUND, w2, path, -1 - pci, parent.size());
                        }
                        path.push_back((uint64_t)pci);
                        cur = prev;
                    }
                }
                if (child_depth == limit)
                    truncated = true;
                else
                    queue.emplace_back(w2, child_depth);
            }
        }
        return witness_result(truncated ? DEPTH_LIMITED : EXHAUSTED, 0, {}, -1, parent.size());
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
}

PyObject *py_bfs_closure(PyObject *, PyObject *args, PyObject *kwargs) {
    static const char *names[] = {"starts", "contexts",    "rmasks", "imasks",
                                  "pmasks", "node_budget", NULL};
    PyObject *starts_obj, *contexts_obj, *rmasks, *imasks, *pmasks, *budget_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOO:bfs_closure", (char **)names,
                                     &starts_obj, &contexts_obj, &rmasks, &imasks, &pmasks,
                                     &budget_obj))
        return NULL;
    try {
        Masks starts, contexts;
        Reactions rx;
        long long budget;
        if (!read_masks(starts_obj, starts) || !read_masks(contexts_obj, contexts) ||
            !read_reactions(rmasks, imasks, pmasks, rx) || !read_count(budget_obj, budget))
            return NULL;

        std::unordered_set<uint64_t> seen, successors, queued;
        Masks order;
        // The queue holds results, not states: each distinct result is
        // expanded once, in the order its first state was discovered.
        std::deque<uint64_t> queue;
        auto visit = [&](uint64_t w) {  // false when the budget stops the search
            if ((long long)seen.size() >= budget) return false;
            seen.insert(w);
            order.push_back(w);
            uint64_t d = res(w, rx);
            if (queued.insert(d).second) queue.push_back(d);
            return true;
        };
        bool truncated = [&] {
            for (uint64_t w : starts)
                if (!seen.count(w) && !visit(w)) return true;
            while (!queue.empty()) {
                uint64_t d = queue.front();
                queue.pop_front();
                for (uint64_t c : contexts) {
                    uint64_t w2 = c | d;
                    successors.insert(w2);
                    if (!seen.count(w2) && !visit(w2)) return true;
                }
            }
            return false;
        }();
        return closure_result(order, successors, truncated);
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
}

PyMethodDef methods[] = {
    {"res_mask", (PyCFunction)(void (*)(void))py_res_mask, METH_VARARGS | METH_KEYWORDS,
     "res_mask(state, rmasks, imasks, pmasks)\n--\n\n"
     "Union of products of the reactions enabled in `state`."},
    {"bfs_witness", (PyCFunction)(void (*)(void))py_bfs_witness, METH_VARARGS | METH_KEYWORDS,
     "bfs_witness(starts, contexts, rmasks, imasks, pmasks, goal_mask, t_mask, "
     "depth_limit, node_budget)\n--\n\n"
     "Shortest-path search over full states; see _kernel_py.bfs_witness."},
    {"bfs_closure", (PyCFunction)(void (*)(void))py_bfs_closure, METH_VARARGS | METH_KEYWORDS,
     "bfs_closure(starts, contexts, rmasks, imasks, pmasks, node_budget)\n--\n\n"
     "Closure of `starts` under successors; see _kernel_py.bfs_closure."},
    {NULL, NULL, 0, NULL},
};

PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel_c",
    "Compiled search kernel over 64-bit masks; see rsys._kernel_py for the contract.", -1,
    methods, NULL, NULL, NULL, NULL,
};

}  // namespace

PyMODINIT_FUNC PyInit__kernel_c(void) {
    PyObject *m = PyModule_Create(&module);
    if (!m) return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0 ||
        PyModule_AddIntConstant(m, "FOUND", FOUND) < 0 ||
        PyModule_AddIntConstant(m, "EXHAUSTED", EXHAUSTED) < 0 ||
        PyModule_AddIntConstant(m, "DEPTH_LIMITED", DEPTH_LIMITED) < 0 ||
        PyModule_AddIntConstant(m, "BUDGET_STOP", BUDGET_STOP) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
