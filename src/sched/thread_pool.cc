#include "sched/thread_pool.hh"

#include <chrono>
#include <cstdlib>

#include "common/logging.hh"

namespace gt::sched
{

namespace
{

/** Identifies the pool (and worker slot) the current thread runs in,
 * so submissions from inside a task land on the worker's own deque. */
struct WorkerIdentity
{
    ThreadPool *pool = nullptr;
    unsigned index = 0;
};

thread_local WorkerIdentity tlsWorker;

} // anonymous namespace

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("GT_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return (unsigned)v;
        warn("ignoring invalid GT_THREADS value '", env, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
    : numThreads(threads > 0 ? threads : 1)
{
    if (numThreads == 1)
        return; // serial fallback: no workers, everything inline
    queues.reserve(numThreads);
    for (unsigned i = 0; i < numThreads; ++i)
        queues.push_back(std::make_unique<WorkerQueue>());
    workers.reserve(numThreads);
    for (unsigned i = 0; i < numThreads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    if (numThreads == 1)
        return;
    {
        std::lock_guard<std::mutex> lock(injectorMutex);
        stopping.store(true);
    }
    wakeup.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::enqueue(std::function<void()> fn)
{
    if (numThreads == 1) {
        fn(); // inline serial execution
        return;
    }
    pendingTasks.fetch_add(1);
    if (tlsWorker.pool == this) {
        WorkerQueue &q = *queues[tlsWorker.index];
        std::lock_guard<std::mutex> lock(q.mutex);
        q.deque.push_back(std::move(fn));
    } else {
        std::lock_guard<std::mutex> lock(injectorMutex);
        injector.push_back(std::move(fn));
    }
    wakeup.notify_one();
}

bool
ThreadPool::tryRunOne(unsigned self)
{
    std::function<void()> task;

    // 1. Own deque, LIFO (locality: newest subtask first).
    {
        WorkerQueue &q = *queues[self];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.deque.empty()) {
            task = std::move(q.deque.back());
            q.deque.pop_back();
        }
    }
    // 2. Shared injector, FIFO.
    if (!task) {
        std::lock_guard<std::mutex> lock(injectorMutex);
        if (!injector.empty()) {
            task = std::move(injector.front());
            injector.pop_front();
        }
    }
    // 3. Steal FIFO from a sibling (oldest task: likely the largest).
    if (!task) {
        for (unsigned off = 1; off < numThreads && !task; ++off) {
            WorkerQueue &q = *queues[(self + off) % numThreads];
            std::lock_guard<std::mutex> lock(q.mutex);
            if (!q.deque.empty()) {
                task = std::move(q.deque.front());
                q.deque.pop_front();
                steals.fetch_add(1);
            }
        }
    }
    if (!task)
        return false;
    // pendingTasks counts *unclaimed* tasks: decrement at claim time
    // so idle siblings can sleep while a long task runs.
    pendingTasks.fetch_sub(1);
    task();
    return true;
}

void
ThreadPool::workerLoop(unsigned index)
{
    tlsWorker = {this, index};
    for (;;) {
        if (tryRunOne(index))
            continue;
        std::unique_lock<std::mutex> lock(injectorMutex);
        if (stopping.load() && pendingTasks.load() == 0)
            return;
        if (pendingTasks.load() > 0) {
            // Work exists somewhere (possibly mid-enqueue); retry.
            lock.unlock();
            std::this_thread::yield();
            continue;
        }
        wakeup.wait_for(lock, std::chrono::milliseconds(1));
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &body,
                        size_t grain)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = defaultGrain(n);
    size_t num_chunks = (n + grain - 1) / grain;

    if (numThreads == 1 || num_chunks == 1) {
        // Serial fallback: identical traversal order, same chunking.
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    /** Shared loop state; helpers hold a reference via shared_ptr so
     * a helper scheduled after the loop finished finds no work and
     * exits without touching freed memory. */
    struct LoopState
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        size_t numChunks;
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<std::exception_ptr> errors;
    };
    auto state = std::make_shared<LoopState>();
    state->numChunks = num_chunks;
    state->errors.assign(num_chunks, nullptr);

    auto run_chunks = [state, &body, n, grain, num_chunks] {
        for (;;) {
            size_t c = state->next.fetch_add(1);
            if (c >= num_chunks)
                return;
            size_t begin = c * grain;
            size_t end = std::min(n, begin + grain);
            try {
                for (size_t i = begin; i < end; ++i)
                    body(i);
            } catch (...) {
                state->errors[c] = std::current_exception();
            }
            size_t finished = state->done.fetch_add(1) + 1;
            if (finished == num_chunks) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->cv.notify_all();
            }
        }
    };

    // Helpers share the claim loop. They capture only the shared
    // state plus the body by reference — safe because the caller
    // cannot return before done == numChunks, and any helper running
    // after that observes next >= numChunks without touching body.
    unsigned helpers =
        (unsigned)std::min<size_t>(numThreads - 1, num_chunks - 1);
    for (unsigned h = 0; h < helpers; ++h)
        enqueue(run_chunks);

    // The caller participates, which guarantees progress even when
    // every worker is occupied (nested loops).
    run_chunks();

    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->cv.wait(lock, [&] {
            return state->done.load() == num_chunks;
        });
    }

    // Lowest-index-first exception propagation keeps failure
    // behavior deterministic too. The errors move to this thread
    // first, so a helper dropping the last reference to the state
    // never destroys an exception the caller is still reading.
    std::vector<std::exception_ptr> errors = std::move(state->errors);
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

namespace
{

/** Admission slots the current thread holds, per handle. A flat
 * vector because a thread holds slots of at most a couple of handles
 * at a time. */
struct HeldSlot
{
    const PoolHandle *handle;
    unsigned depth;
};

thread_local std::vector<HeldSlot> heldSlots;

void
noteAcquired(const PoolHandle *handle)
{
    for (HeldSlot &held : heldSlots) {
        if (held.handle == handle) {
            ++held.depth;
            return;
        }
    }
    heldSlots.push_back({handle, 1});
}

void
noteReleased(const PoolHandle *handle)
{
    for (size_t i = 0; i < heldSlots.size(); ++i) {
        if (heldSlots[i].handle != handle)
            continue;
        if (--heldSlots[i].depth == 0) {
            heldSlots[i] = heldSlots.back();
            heldSlots.pop_back();
        }
        return;
    }
}

bool
threadHoldsSlot(const PoolHandle *handle)
{
    for (const HeldSlot &held : heldSlots) {
        if (held.handle == handle)
            return true;
    }
    return false;
}

} // anonymous namespace

PoolHandle::Slot
PoolHandle::acquire()
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        freed.wait(lock, [this] { return running < cap; });
        ++running;
    }
    noteAcquired(this);
    return Slot(this);
}

PoolHandle::Slot
PoolHandle::acquireReentrant()
{
    if (threadHoldsSlot(this))
        return Slot(nullptr);
    return acquire();
}

void
PoolHandle::release()
{
    noteReleased(this);
    {
        std::lock_guard<std::mutex> lock(mutex);
        --running;
    }
    freed.notify_one();
}

} // namespace gt::sched
