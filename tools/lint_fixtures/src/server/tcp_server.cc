// Seeded violations: blocking calls inside the event-loop section
// (2 lines; the markers mirror the real tcp_server.cc delimiters), and
// one include from outside server/, obs/ and util/ (server-transport).

#include "core/index.h"  // violation: server-transport
#include "server/dispatcher.h"
#include "util/mutex.h"

namespace fixture {

// ---- Event loop (all fd operations happen on this thread) ----

void EventLoop() {
  std::this_thread::sleep_for(kPause);  // violation: event-loop-block
  std::printf("tick\n");                // violation: event-loop-block
}

// ---- Workers ----

void WorkerLoop() {
  // Blocking is fine here: workers may block without stalling the loop.
  std::this_thread::yield();
}

}  // namespace fixture
