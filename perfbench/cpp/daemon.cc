#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "util/logging.h"

namespace perfbench {

namespace {

/** The live daemon, for the signal handler (at most one at a time). */
std::atomic<pid_t> g_daemon_pid{-1};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

bool
socketServed(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    bool ok = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) == 0;
    ::close(fd);
    return ok;
}

DaemonProcess::DaemonProcess(const std::string &binary,
                             const std::vector<std::string> &args,
                             const std::string &log_path)
{
    std::vector<std::string> argv_s;
    argv_s.push_back(binary);
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0)
        POTLUCK_FATAL("fork failed: " << std::strerror(errno));
    if (pid == 0) {
        // The daemon must not outlive the generator, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(1);
        int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    pid_ = pid;
    g_daemon_pid.store(pid);
}

DaemonProcess::~DaemonProcess()
{
    stop();
}

bool
DaemonProcess::waitForSocket(const std::string &socket_path,
                             double timeout_s)
{
    auto t0 = std::chrono::steady_clock::now();
    while (secondsSince(t0) < timeout_s) {
        if (socketServed(socket_path))
            return true;
        int status = 0;
        if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
            g_daemon_pid.store(-1);
            pid_ = -1;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

double
DaemonProcess::rssMb() const
{
    if (pid_ <= 0)
        return 0.0;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

int
DaemonProcess::stop(double timeout_s)
{
    if (pid_ <= 0)
        return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > timeout_s) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    g_daemon_pid.store(-1);
    pid_ = -1;
    return status;
}

void
reapDaemonFromSignal()
{
    pid_t pid = g_daemon_pid.exchange(-1);
    if (pid <= 0)
        return;
    ::kill(pid, SIGTERM);
    // Bounded wait: a daemon that ignores SIGTERM for ~5 s is killed.
    for (int i = 0; i < 500; ++i) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) != 0)
            return;
        struct timespec ts = {0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
}

} // namespace perfbench
