#include "server_process.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

// Live server pids, read by the signal handler. At most two servers
// exist at once (a restart kills the first before starting the next).
constexpr int kMaxServers = 4;
volatile sig_atomic_t g_pids[kMaxServers] = {0, 0, 0, 0};

void Track(pid_t pid) {
  for (int i = 0; i < kMaxServers; ++i) {
    if (g_pids[i] == 0) {
      g_pids[i] = pid;
      return;
    }
  }
}

void Untrack(pid_t pid) {
  for (int i = 0; i < kMaxServers; ++i) {
    if (g_pids[i] == pid) g_pids[i] = 0;
  }
}

void OnSignal(int sig) {
  for (int i = 0; i < kMaxServers; ++i) {
    const pid_t pid = g_pids[i];
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  _exit(128 + sig);
}

}  // namespace

void InstallExitHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) sigaction(sig, &sa, nullptr);
  // A dropped client connection must not kill the load generator.
  signal(SIGPIPE, SIG_IGN);
}

neptune::Status ServerProcess::Start(const std::string& binary,
                                     const std::string& data_dir,
                                     const std::string& log_prefix) {
  Kill();
  const std::string out_path = log_prefix + ".out";
  const std::string err_path = log_prefix + ".err";
  std::vector<std::string> args = {binary,
                                   "serve",
                                   data_dir,
                                   "0",
                                   "--io-threads=" + std::to_string(kIoThreads),
                                   "--workers=" + std::to_string(kWorkers)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // Block the exit signals across fork so the handler never sees a
  // pid that is not yet tracked.
  sigset_t block, old;
  sigemptyset(&block);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) sigaddset(&block, sig);
  sigprocmask(SIG_BLOCK, &block, &old);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (!cpus_.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int cpu : cpus_) CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    signal(SIGINT, SIG_DFL);
    signal(SIGTERM, SIG_DFL);
    signal(SIGHUP, SIG_DFL);
    sigprocmask(SIG_SETMASK, &old, nullptr);
    const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0) _exit(126);
    dup2(out, 1);
    dup2(err, 2);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, 0);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  if (pid > 0) {
    pid_ = pid;
    Track(pid);
  }
  sigprocmask(SIG_SETMASK, &old, nullptr);
  if (pid < 0) return neptune::Status::IOError("fork failed");

  const std::string marker = "event=listening addr=127.0.0.1:";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(err_path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string log = text.str();
    const size_t at = log.find(marker);
    if (at != std::string::npos) {
      const size_t begin = at + marker.size();
      const size_t end = log.find_first_not_of("0123456789", begin);
      if (end != std::string::npos && end > begin) {
        port_ = static_cast<uint16_t>(
            std::strtoul(log.substr(begin, end - begin).c_str(), nullptr, 10));
        return neptune::Status::OK();
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      Untrack(pid_);
      pid_ = -1;
      return neptune::Status::IOError("server exited before listening: " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Kill();
  return neptune::Status::IOError("server did not report its port");
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  Untrack(pid_);
  pid_ = -1;
  port_ = 0;
}

}  // namespace perfbench
