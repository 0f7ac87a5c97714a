// Must not compile: a probe naming a site outside fault::crashSites.
#include "fault/fault.hh"
void probe() { KINDLE_CRASH_SITE("no.such.site"); }
