// Runs the unmodified `neptune_server serve` as a child process on a
// given data directory, learns its port from the
// `event=listening addr=127.0.0.1:<port>` line it logs on stderr, and
// kills and reaps it on every exit path: normal return, a failed
// check, and SIGINT/SIGTERM/SIGHUP (see InstallExitHandlers). The
// child also gets PR_SET_PDEATHSIG so it cannot outlive the load
// generator.

#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

// Server thread counts, the same on every workload so runs are
// comparable: one I/O loop and two workers, as many as the annotate
// workload has connections.
constexpr int kIoThreads = 1;
constexpr int kWorkers = 2;

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts the server with port 0; stdout/stderr go to
  // `log_prefix`.out / .err. Blocks until the listening line appears.
  neptune::Status Start(const std::string& binary, const std::string& data_dir,
                        const std::string& log_prefix);
  // SIGKILL and reap; no-op when not running.
  void Kill();

  // CPUs the server is confined to from its start; empty = any.
  void set_cpus(std::vector<int> cpus) { cpus_ = std::move(cpus); }

  uint16_t port() const { return port_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  std::vector<int> cpus_;
};

// Installs SIGINT/SIGTERM/SIGHUP handlers that SIGKILL and reap every
// live server before the load generator exits with 128+signal.
void InstallExitHandlers();

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
