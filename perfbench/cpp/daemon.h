/**
 * @file
 * The potluckd child process of a socket run: spawned from the build
 * tree with the run's own socket, trace-dump and store paths, and
 * always reaped — by stop(), by the destructor, by the generator's
 * signal handler (see reapDaemonFromSignal), or by the kernel's
 * parent-death signal if the generator itself is killed.
 */
#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/** True when something accepts connections on the Unix socket. */
bool socketServed(const std::string &path);

class DaemonProcess
{
  public:
    /**
     * Fork and exec `binary args...` with stdout/stderr appended to
     * `log_path`. Throws FatalError when the fork fails.
     */
    DaemonProcess(const std::string &binary,
                  const std::vector<std::string> &args,
                  const std::string &log_path);
    ~DaemonProcess();

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Wait until the daemon serves `socket_path`; false when it exits
     * or the timeout passes first. */
    bool waitForSocket(const std::string &socket_path, double timeout_s);

    /** Resident set size of the daemon (VmRSS), in MiB; 0 if gone. */
    double rssMb() const;

    /** SIGTERM, wait up to `timeout_s`, then SIGKILL and wait. Returns
     * the exit status from waitpid (or -1 if already reaped). */
    int stop(double timeout_s = 10.0);

  private:
    pid_t pid_ = -1;
};

/**
 * Async-signal-safe: terminate and reap whichever daemon is running.
 * The generator's SIGINT/SIGTERM handler calls this before exiting.
 */
void reapDaemonFromSignal();

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
